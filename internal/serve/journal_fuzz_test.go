package serve

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"spantree/internal/gen"
)

// FuzzJournalReplay attacks the registry journal's crash contract. The
// op bytes decode into up to 32 registrations and evictions over four
// names (bit 0 picks the op, bits 1-2 the name), applied through
// openJournal and the append methods; after each acknowledged append
// the test records the file's size and the live set. Two damaged copies
// of the final file are then replayed:
//
//   - Truncated at a fuzz-chosen offset. Compaction replaces the file
//     atomically, so a crash can only cut at or after the last
//     compaction's snapshot. Replay must return exactly the live set
//     after the last append that ends at or before the cut, or the
//     empty set when the cut falls inside the header.
//   - With one fuzz-chosen byte flipped. Replay must not panic; it may
//     refuse the file with an error.
//
// Whenever replay succeeds, one more append followed by a reopen must
// round-trip. `go test` runs the seed corpus;
// `go test -run '^$' -fuzz FuzzJournalReplay ./internal/serve` explores
// further.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte{}, uint16(7), uint16(3), byte(0))                            // cut inside the header
	f.Add([]byte{0, 2, 4, 3}, uint16(254), uint16(40), byte(0x0a))            // three registers, one evict, uncut
	f.Add(bytes.Repeat([]byte{0, 1}, 10), uint16(500), uint16(9), byte(0x20)) // churn past compaction
	f.Add([]byte{6, 8, 0, 7, 16, 1, 9}, uint16(1000), uint16(200), byte(1))   // re-register, evict
	f.Fuzz(func(t *testing.T, ops []byte, cut, flipAt uint16, mask byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "registry.journal")
		j, _, _, err := openJournal(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		type mark struct {
			size int64
			live map[string]gen.Spec
		}
		fi := statFile(t, path)
		marks := []mark{{fi.Size(), map[string]gen.Spec{}}}
		var base int64 // where the file that survives began: 0 or the last snapshot's end
		live := map[string]gen.Spec{}
		for i, b := range ops[:min(len(ops), 32)] {
			name := string(rune('a' + (b>>1)%4))
			if b&1 == 0 {
				spec := gen.Spec{Kind: "chain", N: 1 + int(b>>3), Seed: uint64(i)}
				err = j.AppendRegister(name, spec)
				live[name] = spec
			} else {
				err = j.AppendEvict(name)
				delete(live, name)
			}
			if err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			cur := statFile(t, path)
			if !os.SameFile(fi, cur) {
				// Compacted: the snapshot replaced the file.
				base, marks = cur.Size(), marks[:0]
			}
			fi = cur
			marks = append(marks, mark{cur.Size(), maps.Clone(live)})
		}
		j.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		at := base + int64(cut)%(int64(len(data))-base+1)
		want := map[string]gen.Spec{}
		for _, m := range marks {
			if m.size <= at {
				want = m.live
			}
		}
		got, err := replayJournal(t, filepath.Join(dir, "cut.journal"), data[:at])
		if err != nil {
			t.Fatalf("replay of a cut at %d of %d bytes: %v", at, len(data), err)
		}
		if !maps.Equal(got, want) {
			t.Fatalf("replay of a cut at %d of %d bytes: live %v, want %v", at, len(data), got, want)
		}

		if mask == 0 {
			mask = 0xff
		}
		bad := bytes.Clone(data)
		bad[int(flipAt)%len(bad)] ^= mask
		replayJournal(t, filepath.Join(dir, "flip.journal"), bad) // refusing the file is allowed
	})
}

// replayJournal writes data to path and replays it. When replay
// succeeds, it also checks that one more append followed by a reopen
// round-trips. It returns the replayed live set, or replay's error.
func replayJournal(t *testing.T, path string, data []byte) (map[string]gen.Spec, error) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, names, live, err := openJournal(path, nil)
	if err != nil {
		return nil, err
	}
	if len(names) != len(live) || !sort.StringsAreSorted(names) {
		j.Close()
		t.Fatalf("replay returned names %q for live set %v", names, live)
	}
	got := maps.Clone(live)
	spec := gen.Spec{Kind: "torus2d", N: 16, Seed: 99}
	err = j.AppendRegister("after", spec)
	j.Close()
	if err != nil {
		t.Fatalf("append after replay: %v", err)
	}
	want := maps.Clone(got)
	want["after"] = spec
	j, _, again, err := openJournal(path, nil)
	if err != nil {
		t.Fatalf("reopen after append: %v", err)
	}
	j.Close()
	if !maps.Equal(again, want) {
		t.Fatalf("reopen after append: live %v, want %v", again, want)
	}
	return got, nil
}

func statFile(t *testing.T, path string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi
}
