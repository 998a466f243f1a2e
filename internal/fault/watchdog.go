package fault

import (
	"sync"
	"sync/atomic"
	"time"
)

// Watchdog detects stuck runs: every worker bumps a private padded
// heartbeat slot at its chunk boundaries (where it already pays a
// synchronization), and a single persistent monitor goroutine samples
// the heartbeat sum while a run is armed. When the sum stays unchanged
// for a full stall budget of elapsed time — no worker anywhere claimed a
// chunk — the monitor trips the run's Flag with CauseStalled and the
// workers drain through the same cooperative abort path as a
// cancellation, leaving pooled state reusable.
//
// A Watchdog is built once and rearmed per run (Arm/Disarm), so pooled
// workspaces keep their zero-allocation steady state: Beat is one
// uncontended load+store, and Arm/Disarm only write the armed run under
// a mutex that the monitor samples on its own timer — no message
// crosses to the monitor per run. The monitor parks after two quiet
// budgets with nothing armed; the next Arm wakes it with one
// non-blocking send. A nil *Watchdog is valid and inert, so
// un-hardened callers pay only the nil check.
type Watchdog struct {
	slots []beatSlot
	trips atomic.Int64
	// wake unparks the monitor or makes it resample sooner; capacity 1,
	// closed by Close.
	wake chan struct{}

	// mu guards the armed run, which the monitor samples under it.
	mu      sync.Mutex
	flag    *Flag // nil while disarmed
	budget  time.Duration
	armedAt time.Time
	base    int64  // heartbeat sum at Arm
	gen     uint64 // bumped by every Arm
	// period is the monitor's sampling interval, 0 while it is parked.
	period time.Duration
}

// beatSlot is one worker's heartbeat, padded to its own cache line so
// beats never false-share (same layout discipline as the obs counter
// slots).
type beatSlot struct {
	n atomic.Int64
	_ [56]byte
}

// parkAfter is how many consecutive samples must find nothing armed,
// and no Arm since the previous sample, before the monitor parks: two
// budgets at the budget/4 sampling period.
const parkAfter = 8

// NewWatchdog returns a watchdog for a team of `workers` virtual
// processors with its monitor goroutine parked. The caller must Close
// it when the owning workspace or engine is done.
func NewWatchdog(workers int) *Watchdog {
	if workers < 1 {
		workers = 1
	}
	w := &Watchdog{
		slots: make([]beatSlot, workers),
		wake:  make(chan struct{}, 1),
	}
	go w.monitor()
	return w
}

// Beat records progress for worker tid. Called at chunk boundaries
// only when the worker actually advanced (claimed or drained work), so
// a run where every worker spins idle still reads as stalled. The slot
// is single-writer; load+store avoids a contended RMW.
func (w *Watchdog) Beat(tid int) {
	if w == nil {
		return
	}
	s := &w.slots[tid].n
	s.Store(s.Load() + 1)
}

// Trips returns how many runs this watchdog has aborted.
func (w *Watchdog) Trips() int64 {
	if w == nil {
		return 0
	}
	return w.trips.Load()
}

// samplePeriod is the monitor's sampling interval for a budget:
// budget/4, at least 1ms.
func samplePeriod(budget time.Duration) time.Duration {
	return max(budget/4, time.Millisecond)
}

// Arm starts monitoring a run: if the heartbeat sum stays unchanged
// for a full budget, f trips with CauseStalled. A budget <= 0 leaves
// the watchdog disarmed. The caller must Disarm before resetting f for
// the next run. Arm does not allocate, and it signals the monitor only
// when the monitor is parked or samples too slowly for this budget.
func (w *Watchdog) Arm(f *Flag, budget time.Duration) {
	if w == nil || f == nil || budget <= 0 {
		return
	}
	base, now := w.sum(), time.Now()
	w.mu.Lock()
	w.flag, w.budget, w.base, w.armedAt = f, budget, base, now
	w.gen++
	if p := samplePeriod(budget); w.period == 0 || p < w.period {
		w.period = p
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	w.mu.Unlock()
}

// Disarm stops monitoring. It is synchronous: the monitor trips only
// under the mutex Disarm takes, so once Disarm returns it holds no flag
// reference and cannot trip late, and the caller may safely Reset the
// flag for the next run. Disarm when already disarmed is a harmless
// no-op; Disarm does not allocate.
func (w *Watchdog) Disarm() {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.flag = nil
	w.mu.Unlock()
}

// Close releases the monitor goroutine. The watchdog must be disarmed
// and no Arm/Disarm may race Close; Beat stays safe (it only touches
// the slots).
func (w *Watchdog) Close() {
	if w == nil {
		return
	}
	close(w.wake)
}

// sum folds the per-worker heartbeats; monotone because each slot only
// grows, so "sum unchanged" means "no worker advanced".
func (w *Watchdog) sum() int64 {
	var t int64
	for i := range w.slots {
		t += w.slots[i].n.Load()
	}
	return t
}

// monitor is the persistent watchdog goroutine. Parked, it waits for a
// wake; otherwise it samples every period. A sample that finds a run
// armed trips its flag once the elapsed time since the heartbeat last
// moved (or since the Arm) reaches the budget. Time, not a count of
// samples, decides, so a stale timer tick or a wake only adds a sample.
// The sampling timer is reused for the watchdog's whole life.
func (w *Watchdog) monitor() {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	var (
		period   time.Duration // 0: parked
		seen     uint64        // the Arm generation the samples follow
		last     int64         // heartbeat sum at the previous sample
		progress time.Time     // when the sum was last seen to move, or the Arm
		quiet    int           // consecutive samples finding nothing armed and no new Arm
	)
	for {
		if period == 0 {
			if _, ok := <-w.wake; !ok {
				return
			}
		} else {
			timer.Reset(period)
			select {
			case _, ok := <-w.wake:
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				if !ok {
					return
				}
			case <-timer.C:
			}
		}

		w.mu.Lock()
		now := time.Now()
		switch {
		case w.gen != seen:
			seen, last, progress, quiet = w.gen, w.base, w.armedAt, 0
		case w.flag == nil:
			quiet++
		}
		if w.flag != nil {
			if cur := w.sum(); cur != last {
				last, progress = cur, now
			}
			if now.Sub(progress) >= w.budget {
				if w.flag.Trip(CauseStalled) {
					w.trips.Add(1)
				}
				// The tripped run drains on its own; the next Arm rearms.
				w.flag = nil
			}
		}
		if quiet >= parkAfter {
			w.period = 0
		} else {
			w.period = samplePeriod(w.budget)
		}
		period = w.period
		w.mu.Unlock()
	}
}
