// Package leakcheck is test support for goroutine-leak checks: a test
// records runtime.NumGoroutine before it starts work and asks Settle to
// wait until the count comes back.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// settleTimeout bounds how long Settle waits. Counting is inherently
// racy — a joined goroutine may still be returning, and the runtime may
// briefly hold netpoller, timer or test-framework goroutines — so the
// check is "returns to baseline within a deadline", not equality at one
// instant.
const settleTimeout = 5 * time.Second

// Settle polls until at most want goroutines are live, and fails tb
// with every goroutine's stack if the count is still higher after the
// deadline. Callers pass their baseline plus whatever slack their
// teardown needs.
func Settle(tb testing.TB, want int) {
	tb.Helper()
	deadline := time.Now().Add(settleTimeout)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			tb.Fatalf("goroutines leaked: %d live, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}
