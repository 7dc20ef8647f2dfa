package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"logicblox/internal/core"
)

// runRepair reproduces the paper's §3.4 illustration on the real engine:
// optimistic transactions race for one branch head, and a loser either
// re-executes in full (coarse retry) or is repaired from its recorded
// sensitivity intervals. Each transaction touches any of n inventory
// items with probability α·n^(−1/2), so two transactions share α² items
// in expectation; every touched item is decremented through a point read
// (^inv[k] = r <- inv@start[k] = q, r = q - 1.), which records a point
// interval on exactly that key. Transactions with disjoint item sets
// therefore repair instead of re-executing, and the repair/full_reexec
// split tracks α² directly — the paper's claim that repair work stays
// proportional to the shared items, hardware-independent of the
// wall-clock speedups (bounded by GOMAXPROCS, printed below).
func runRepair(quick bool) {
	n := 2000
	txCount := 128
	if quick {
		n, txCount = 500, 48
	}
	workerSet := []int{2, 4, 8}
	cpus := runtime.GOMAXPROCS(0)
	fmt.Printf("GOMAXPROCS = %d (speedups are bounded by available cores)\n", cpus)

	for _, alpha := range []float64{0.1, 1, 10} {
		seed := inventoryWorkspace(n)
		txs := inventoryTxns(n, txCount, alpha, 11)
		ops := 0
		for _, tx := range txs {
			ops += strings.Count(tx, "\n")
		}
		fmt.Printf("alpha=%.1f: E[shared items per pair] = %.2f, avg ops/tx = %d\n",
			alpha, alpha*alpha, ops/len(txs))

		t0 := time.Now()
		want := runTxSerial(core.NewDatabaseWith(seed), txs)
		serial := time.Since(t0)
		fmt.Printf("  serial: %v\n", serial.Round(time.Millisecond))
		fmt.Printf("  %-9s %-12s %-9s %-9s %-9s %-12s %-9s %-9s\n",
			"workers", "repair", "speedup", "repaired", "full", "coarse", "speedup", "full")
		for _, w := range workerSet {
			t0 = time.Now()
			gotR, statsR := runTxConcurrent(core.NewDatabaseWith(seed), txs, w, true)
			dR := time.Since(t0)
			t0 = time.Now()
			gotC, statsC := runTxConcurrent(core.NewDatabaseWith(seed), txs, w, false)
			dC := time.Since(t0)
			if !want.Relation("inv").Equal(gotR.Relation("inv")) || !want.Relation("inv").Equal(gotC.Relation("inv")) {
				panic("serializability violated: concurrent final state diverged from serial")
			}
			fmt.Printf("  %-9d %-12v %-9.2f %-9d %-9d %-12v %-9.2f %-9d\n",
				w, dR.Round(time.Millisecond), serial.Seconds()/dR.Seconds(), statsR.repairs, statsR.fullReexecs,
				dC.Round(time.Millisecond), serial.Seconds()/dC.Seconds(), statsC.fullReexecs)
		}
	}
	fmt.Println("shape check: repaired conflicts dominate at small α (disjoint item sets,")
	fmt.Println("point-interval reads miss the winner's writes); full re-executions take")
	fmt.Println("over as α² shared items make the loser's reads stale.")
}

// inventoryWorkspace seeds inv[k] = 1000 for k in [0, n).
func inventoryWorkspace(n int) *core.Workspace {
	var b strings.Builder
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "+inv[%d] = 1000.\n", k)
	}
	ws := core.NewWorkspace()
	res, err := ws.Exec(b.String())
	if err != nil {
		panic(err)
	}
	return res.Workspace
}

// inventoryTxns builds txCount transaction sources; each decrements every
// item it touches (probability α·n^(−1/2) per item) via a point read.
func inventoryTxns(n, txCount int, alpha float64, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	p := alpha / math.Sqrt(float64(n))
	txs := make([]string, 0, txCount)
	for i := 0; i < txCount; i++ {
		var b strings.Builder
		for k := 0; k < n; k++ {
			if rng.Float64() < p {
				fmt.Fprintf(&b, "^inv[%d] = r <- inv@start[%d] = q, r = q - 1.\n", k, k)
			}
		}
		if b.Len() == 0 { // empty transactions carry no signal
			k := rng.Intn(n)
			fmt.Fprintf(&b, "^inv[%d] = r <- inv@start[%d] = q, r = q - 1.\n", k, k)
		}
		txs = append(txs, b.String())
	}
	return txs
}

type txStats struct {
	conflicts, repairs, fullReexecs int64
}

// runTxSerial applies the transactions one at a time — the ground-truth
// final state and the speedup baseline.
func runTxSerial(db *core.Database, txs []string) *core.Workspace {
	for _, src := range txs {
		head, err := db.Workspace("main")
		if err != nil {
			panic(err)
		}
		res, err := head.Exec(src)
		if err != nil {
			panic(err)
		}
		if err := db.CommitIf("main", head, res.Workspace, core.CommitRecord{Kind: "exec", Src: src}); err != nil {
			panic(err)
		}
	}
	head, _ := db.Workspace("main")
	return head
}

// runTxConcurrent races the transactions over `workers` goroutines with
// optimistic commits. With repair enabled, a lost CAS first tries
// fine-grained repair from the recorded execution; otherwise (and on
// repair fallback) the whole transaction re-executes against the new
// head.
func runTxConcurrent(db *core.Database, txs []string, workers int, repair bool) (*core.Workspace, txStats) {
	ctx := context.Background()
	var stats txStats
	work := make(chan string, len(txs))
	for _, src := range txs {
		work <- src
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for src := range work {
				head, err := db.Workspace("main")
				if err != nil {
					panic(err)
				}
				var res *core.ExecResult
				var rec *core.ExecRecord
				if repair {
					res, rec, err = head.ExecRecordedCtx(ctx, src)
				} else {
					res, err = head.ExecCtx(ctx, src)
				}
				if err != nil {
					panic(err)
				}
				for db.CommitIf("main", head, res.Workspace, core.CommitRecord{Kind: "exec", Src: src}) != nil {
					atomic.AddInt64(&stats.conflicts, 1)
					newHead, err := db.Workspace("main")
					if err != nil {
						panic(err)
					}
					if rec != nil {
						if res2, _, rerr := rec.Repair(ctx, newHead); rerr == nil {
							atomic.AddInt64(&stats.repairs, 1)
							head, res = newHead, res2
							continue
						}
					}
					atomic.AddInt64(&stats.fullReexecs, 1)
					head = newHead
					if repair {
						res, rec, err = head.ExecRecordedCtx(ctx, src)
					} else {
						res, err = head.ExecCtx(ctx, src)
					}
					if err != nil {
						panic(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	head, _ := db.Workspace("main")
	return head, stats
}
