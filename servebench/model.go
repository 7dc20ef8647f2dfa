package main

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Outcomes of a write as the client saw it.
const (
	pending = iota
	acked   // 200: committed at the returned version
	refused // 4xx: definitely not committed
	unknown // 5xx or transport error: may or may not have committed
)

// model is the benchmark's record of every write it sent, per key, from
// which it decides which values a read may return.
type model struct {
	mu    sync.Mutex
	epoch time.Time
	keys  [][]*write
	init  []int
}

// write is one upsert: its value, when it was sent and answered
// (relative to the epoch), and the branch version it committed at.
type write struct {
	val        int
	start, end time.Duration
	ver        uint64
	state      int
}

func newModel(init []int) *model {
	return &model{epoch: time.Now(), keys: make([][]*write, len(init)), init: init}
}

func (m *model) now() time.Duration { return time.Since(m.epoch) }

// begin records a write of v to k about to be sent.
func (m *model) begin(k, v int) *write {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &write{val: v, start: m.now()}
	m.keys[k] = append(m.keys[k], w)
	return w
}

// finish records a write's outcome.
func (m *model) finish(w *write, state int, ver uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w.end, w.state, w.ver = m.now(), state, ver
}

// latest is the value of the newest acknowledged write to k (by commit
// version), or k's initial value.
func (m *model) latest(k int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ver := m.init[k], uint64(0)
	for _, w := range m.keys[k] {
		if w.state == acked && w.ver > ver {
			v, ver = w.val, w.ver
		}
	}
	return v
}

// cands returns the values a read of k running from ts to te may see:
// the initial value and every write sent before te that could have
// committed, minus those a write acknowledged before ts superseded.
// Writes not yet acknowledged supersede nothing and are never
// superseded, so a read racing them may see either side.
func (m *model) cands(k int, ts, te time.Duration) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	ver := func(w *write) uint64 {
		if w.state == acked {
			return w.ver
		}
		return math.MaxUint64
	}
	var floor uint64 // newest version acknowledged before the read began
	for _, w := range m.keys[k] {
		if w.state == acked && w.end < ts && w.ver > floor {
			floor = w.ver
		}
	}
	var out []int
	if floor == 0 {
		out = append(out, m.init[k])
	}
	for _, w := range m.keys[k] {
		if w.state != refused && w.start < te && ver(w) >= floor {
			out = append(out, w.val)
		}
	}
	return out
}

// settled returns the values k may hold once no write is in flight.
func (m *model) settled(k int) []int {
	return m.cands(k, math.MaxInt64, math.MaxInt64)
}

// checkBase checks a database's base values against the model.
func (m *model) checkBase(base []int) error {
	if len(base) != len(m.init) {
		return fmt.Errorf("%d keys, model has %d", len(base), len(m.init))
	}
	bad := 0
	var first error
	for k, v := range base {
		ok := false
		for _, c := range m.settled(k) {
			ok = ok || c == v
		}
		if !ok {
			bad++
			if first == nil {
				first = fmt.Errorf("key %d holds %d, model allows %v", k, v, m.settled(k))
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d keys differ from the model; first: %w", bad, first)
	}
	return nil
}
