package durable_test

import (
	"fmt"
	"math/rand"
	"testing"

	"logicblox/internal/core"
	"logicblox/internal/durable"
	"logicblox/internal/durable/faultfs"
)

// The crash-recovery property test. One workload — a block install, a
// stream of recorded exec commits, periodic checkpoints (which rotate
// snapshot generations and truncate the journal) — runs against the
// fault-injection filesystem. A fault-free probe run counts the
// filesystem operations; then the workload is re-run crashing at every
// single operation index, recovery runs over the surviving state, and
// the recovered database must contain exactly the acknowledged commits:
// none lost (durability), none invented (no phantoms).

const (
	crashCommits    = 10
	crashCheckpoint = 3 // checkpoint every 3rd commit: rotation under fire
	crashDataDir    = "data"
)

type workloadResult struct {
	ackedBlock bool  // the addblock commit was acknowledged
	acked      []int // values whose exec commit was acknowledged
	attempted  []int // values whose exec commit was attempted, in order
}

// runCrashWorkload drives the workload until the filesystem gives out.
// Every error is tolerated — after the crash point fires, everything
// fails — and only acknowledged commits are recorded.
func runCrashWorkload(fs *faultfs.FS) workloadResult {
	var res workloadResult
	opts := durable.Options{FS: fs, Generations: 2, CheckpointEvery: -1, CheckpointInterval: -1}
	store, err := durable.Open(crashDataDir, opts)
	if err != nil {
		return res
	}
	db, err := store.Recover(freshDB)
	if err != nil {
		return res
	}
	db.SetCommitHook(store.LogCommit)

	ws, err := db.Workspace(core.DefaultBranch)
	if err != nil {
		return res
	}
	const blockSrc = `q(x, y) <- p(x), p(y), x < y.`
	next, err := ws.AddBlock("views", blockSrc)
	if err == nil {
		if db.CommitIf(core.DefaultBranch, ws, next, core.CommitRecord{Kind: "addblock", Name: "views", Src: blockSrc}) == nil {
			res.ackedBlock = true
		}
	}

	for v := 0; v < crashCommits; v++ {
		res.attempted = append(res.attempted, v)
		if commitValue(db, v) == nil {
			res.acked = append(res.acked, v)
		}
		if (v+1)%crashCheckpoint == 0 {
			// Errors ignored: a failed checkpoint must never lose
			// journaled commits (that is part of the property).
			_ = store.Checkpoint(db.SaveSnapshot)
		}
	}
	return res
}

// recoverAfterCrash reopens the directory post-crash and recovers.
func recoverAfterCrash(t *testing.T, fs *faultfs.FS) *core.Database {
	t.Helper()
	store, err := durable.Open(crashDataDir, durable.Options{FS: fs, Generations: 2})
	if err != nil {
		t.Fatalf("post-crash Open: %v", err)
	}
	db, err := store.Recover(freshDB)
	if err != nil {
		t.Fatalf("post-crash Recover: %v", err)
	}
	return db
}

func TestCrashRecoveryEveryPoint(t *testing.T) {
	probe := faultfs.New()
	full := runCrashWorkload(probe)
	total := probe.Ops()
	if len(full.acked) != crashCommits || !full.ackedBlock {
		t.Fatalf("fault-free run acked %d/%d commits (block %v)", len(full.acked), crashCommits, full.ackedBlock)
	}
	if total < 50 {
		t.Fatalf("workload performed only %d fs operations; crash sweep would be trivial", total)
	}

	for point := 1; point <= total; point++ {
		fs := faultfs.New()
		fs.SetCrashAt(point)
		res := runCrashWorkload(fs)
		fs.Crash()
		db := recoverAfterCrash(t, fs)
		got := relationInts(t, db)
		if !equalInts(got, res.acked) {
			t.Fatalf("crash at op %d: recovered %v, acked %v", point, got, res.acked)
		}
		// The derived view must have been re-derived over the recovered
		// base data (replay goes through the normal transaction path).
		if res.ackedBlock && len(res.acked) >= 2 {
			ws, err := db.Workspace(core.DefaultBranch)
			if err != nil {
				t.Fatal(err)
			}
			n := len(res.acked)
			if q := ws.Relation("q"); q.Len() != n*(n-1)/2 {
				t.Fatalf("crash at op %d: derived q has %d tuples, want %d", point, q.Len(), n*(n-1)/2)
			}
		}
	}
}

// Torn-write mode: at a random crash point, unsynced appends may persist
// a partial prefix and unsynced directory entries may or may not
// survive. Acknowledged commits must all survive (they were fsynced);
// beyond them, at most the single commit that was in flight at the
// crash may surface — never anything else, and never a gap.
func TestCrashRecoveryTornWrites(t *testing.T) {
	probe := faultfs.New()
	runCrashWorkload(probe)
	total := probe.Ops()
	rng := rand.New(rand.NewSource(42))

	for trial := 0; trial < 60; trial++ {
		point := 1 + rng.Intn(total)
		fs := faultfs.New()
		fs.SetCrashAt(point)
		res := runCrashWorkload(fs)
		fs.CrashTorn(rng)
		db := recoverAfterCrash(t, fs)
		got := relationInts(t, db)

		// got must be a contiguous prefix 0..k-1 of the attempted values
		// with len(acked) <= k <= len(acked)+1.
		for i, v := range got {
			if v != i {
				t.Fatalf("crash at op %d (trial %d): recovered %v has a gap", point, trial, got)
			}
		}
		if len(got) < len(res.acked) || len(got) > len(res.acked)+1 {
			t.Fatalf("crash at op %d (trial %d): recovered %v, acked %v — lost or phantom commits",
				point, trial, got, res.acked)
		}
	}
}

// Crashes during recovery itself (the journal-tail rewrite after a torn
// append) must not lose acknowledged commits either: recover, crash the
// recovery, recover again.
func TestCrashDuringRecovery(t *testing.T) {
	fs := faultfs.New()
	fs.SetCrashAt(55) // somewhere mid-workload
	res := runCrashWorkload(fs)
	fs.Crash()

	for point := 1; point <= 12; point++ {
		fs2 := faultfs.New()
		fs2.SetCrashAt(55)
		res2 := runCrashWorkload(fs2)
		fs2.Crash()
		if !equalInts(res2.acked, res.acked) {
			t.Fatalf("workload not deterministic: %v vs %v", res2.acked, res.acked)
		}
		fs2.SetCrashAt(point)
		store, err := durable.Open(crashDataDir, durable.Options{FS: fs2, Generations: 2})
		if err == nil {
			db, rerr := store.Recover(freshDB)
			if rerr == nil {
				// Recovery finished before the crash point fired; the
				// result must already be correct.
				if got := relationInts(t, db); !equalInts(got, res.acked) {
					t.Fatalf("recovery crash point %d: recovered %v, acked %v", point, got, res.acked)
				}
			}
		}
		fs2.Crash()
		db := recoverAfterCrash(t, fs2)
		if got := relationInts(t, db); !equalInts(got, res.acked) {
			t.Fatalf("second recovery after crash point %d: recovered %v, acked %v", point, got, res.acked)
		}
	}
}

// Short writes and transient errors reject the affected commit cleanly;
// the store keeps accepting commits afterwards and recovery stays exact.
func TestTransientFaults(t *testing.T) {
	for name, arm := range map[string]func(*faultfs.FS, int){
		"error":       func(fs *faultfs.FS, op int) { fs.FailAt(op, fmt.Errorf("transient io error")) },
		"short-write": func(fs *faultfs.FS, op int) { fs.ShortWriteAt(op) },
	} {
		t.Run(name, func(t *testing.T) {
			probe := faultfs.New()
			full := runCrashWorkload(probe)
			total := probe.Ops()
			for point := total / 2; point < total/2+8 && point <= total; point++ {
				fs := faultfs.New()
				arm(fs, point)
				res := runCrashWorkload(fs)
				if len(res.acked) < len(full.acked)-2 {
					t.Fatalf("fault at op %d rejected %d commits, want at most 2",
						point, len(full.acked)-len(res.acked))
				}
				fs.Crash()
				db := recoverAfterCrash(t, fs)
				got := relationInts(t, db)
				if !equalInts(got, res.acked) {
					t.Fatalf("fault at op %d: recovered %v, acked %v", point, got, res.acked)
				}
			}
		})
	}
}
