package core

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"logicblox/internal/ast"
	"logicblox/internal/optimizer"
	"logicblox/internal/parser"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// Snapshot persistence (paper §3.1: "our internal framework transparently
// persists, restores, and garbage-collects these objects", and T4 #5:
// recovery without a transaction log — a snapshot of the immutable state
// is all there is). A snapshot records every branch head's logic and base
// data; derived predicates are re-materialized on restore, which doubles
// as recovery: there is no log to replay.

type valueDTO struct {
	Kind uint8
	I    int64
	F    float64
	S    string
	E    [2]uint32
}

type snapshotWorkspace struct {
	Blocks map[string]string
	Base   map[string][][]valueDTO
	Arity  map[string]int
	// Adaptive records that the branch ran with the feedback-driven
	// adaptive optimizer; Plans carries its plan store's learned orders
	// (keyed by structural rule fingerprints, which survive restarts) so
	// restored workspaces reuse them instead of re-sampling. Gob leaves
	// both zero when restoring pre-plan-store snapshots.
	Adaptive bool
	Plans    []optimizer.SavedPlan
}

type snapshotDB struct {
	Version  int
	Branches map[string]snapshotWorkspace
	// Seq is the database's operation sequence number at snapshot time;
	// journal replay (internal/durable) resumes after it. Gob leaves it
	// zero when restoring pre-journal snapshots.
	Seq uint64
}

func valueToDTO(v tuple.Value) valueDTO {
	switch v.Kind() {
	case tuple.KindBool:
		i := int64(0)
		if v.AsBool() {
			i = 1
		}
		return valueDTO{Kind: 1, I: i}
	case tuple.KindInt:
		return valueDTO{Kind: 2, I: v.AsInt()}
	case tuple.KindFloat:
		return valueDTO{Kind: 3, F: v.AsFloat()}
	case tuple.KindString:
		return valueDTO{Kind: 4, S: v.AsString()}
	case tuple.KindEntity:
		return valueDTO{Kind: 5, E: [2]uint32{v.EntityType(), v.EntityOrdinal()}}
	default:
		return valueDTO{Kind: 0}
	}
}

func dtoToValue(d valueDTO) tuple.Value {
	switch d.Kind {
	case 1:
		return tuple.Bool(d.I != 0)
	case 2:
		return tuple.Int(d.I)
	case 3:
		return tuple.Float(d.F)
	case 4:
		return tuple.String(d.S)
	case 5:
		return tuple.Entity(d.E[0], d.E[1])
	default:
		return tuple.Null
	}
}

// snapshot captures the workspace's durable state.
func (ws *Workspace) snapshot() snapshotWorkspace {
	out := snapshotWorkspace{
		Blocks: map[string]string{},
		Base:   map[string][][]valueDTO{},
		Arity:  map[string]int{},
	}
	ws.blocks.Range(func(name, src string) bool {
		out.Blocks[name] = src
		return true
	})
	ws.base.Range(func(pred string, rel relation.Relation) bool {
		rows := make([][]valueDTO, 0, rel.Len())
		rel.ForEach(func(t tuple.Tuple) bool {
			row := make([]valueDTO, len(t))
			for i, v := range t {
				row[i] = valueToDTO(v)
			}
			rows = append(rows, row)
			return true
		})
		out.Base[pred] = rows
		out.Arity[pred] = rel.Arity()
		return true
	})
	if ws.plans != nil {
		out.Adaptive = true
		out.Plans = ws.plans.Export()
	}
	return out
}

// RestoreWorkspace rebuilds a workspace from block sources and base data:
// all blocks are compiled together, base predicates set, derived
// predicates re-materialized, and integrity constraints verified.
func RestoreWorkspace(blocks map[string]string, base map[string][]tuple.Tuple, arity map[string]int) (*Workspace, error) {
	ws := NewWorkspace()
	var names []string
	for n := range blocks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		prog, err := parseBlock(n, blocks[n])
		if err != nil {
			return nil, err
		}
		ws.blocks = ws.blocks.Set(n, blocks[n])
		ws.parsed = ws.parsed.Set(n, prog)
	}
	compiled, err := compileBlocks(ws.parsedBlocks())
	if err != nil {
		return nil, err
	}
	ws.prog = compiled
	dirty := map[string]bool{}
	for pred, rows := range base {
		a := arity[pred]
		if a == 0 && len(rows) > 0 {
			a = len(rows[0])
		}
		rel := relation.FromTuples(a, rows)
		ws.base = ws.base.Set(pred, rel)
		dirty[pred] = true
	}
	for _, name := range compiled.IDBPreds {
		dirty[name] = true
	}
	return ws.settle(context.Background(), dirty, nil)
}

// Save writes a snapshot of every branch head.
func (db *Database) Save(w io.Writer) error {
	_, err := db.SaveSnapshot(w)
	return err
}

// SaveSnapshot is Save returning the operation sequence number the
// snapshot covers; both are captured under the same read lock, so the
// snapshot contains exactly the commits numbered ≤ seq. The durability
// layer names snapshot generations by this seq and replays only journal
// records after it.
func (db *Database) SaveSnapshot(w io.Writer) (seq uint64, err error) {
	db.mu.RLock()
	snap := snapshotDB{Version: 1, Branches: map[string]snapshotWorkspace{}, Seq: db.seq}
	for name, ws := range db.branches {
		snap.Branches[name] = ws.snapshot()
	}
	db.mu.RUnlock()
	return snap.Seq, gob.NewEncoder(w).Encode(snap)
}

// LoadDatabase restores a database from a snapshot written by Save.
// Derived predicates are re-materialized from the restored logic and
// data; the version history restarts at the restored heads. Truncated
// or bit-flipped input — a gob stream that fails to decode, or one that
// decodes into state that cannot be re-derived — is reported as
// ErrCorruptSnapshot, so callers can fall back to an older generation
// or surface a clean error instead of a raw decoder message.
func LoadDatabase(r io.Reader) (*Database, error) {
	var snap snapshotDB
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: %w: decode: %v", ErrCorruptSnapshot, err)
	}
	if snap.Version != 1 {
		// Unreadable for this build either way — typed so recovery can
		// fall back to an older generation and CLIs report it cleanly.
		return nil, fmt.Errorf("core: %w: unsupported snapshot version %d", ErrCorruptSnapshot, snap.Version)
	}
	db := &Database{branches: map[string]*Workspace{}, seq: snap.Seq}
	var names []string
	for n := range snap.Branches {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		sw := snap.Branches[name]
		base := map[string][]tuple.Tuple{}
		for pred, rows := range sw.Base {
			ts := make([]tuple.Tuple, len(rows))
			for i, row := range rows {
				t := make(tuple.Tuple, len(row))
				for j, d := range row {
					t[j] = dtoToValue(d)
				}
				ts[i] = t
			}
			base[pred] = ts
		}
		ws, err := RestoreWorkspace(sw.Blocks, base, sw.Arity)
		if err != nil {
			// A snapshot whose recorded logic no longer parses, compiles
			// or satisfies its constraints is corrupt: Save only writes
			// states that passed all three.
			return nil, fmt.Errorf("core: %w: restoring branch %s: %v", ErrCorruptSnapshot, name, err)
		}
		if sw.Adaptive {
			// Re-arm the adaptive optimizer with the learned orders. One
			// nuance versus the live process: a plan store is shared by
			// every branch derived from the workspace it was attached to,
			// but the snapshot records it per branch head, so after a
			// restore each branch continues with its own copy.
			ws = ws.WithAdaptiveOptimizer(true)
			ws.plans.Seed(sw.Plans)
		}
		db.branches[name] = ws
		db.history = append(db.history, VersionEntry{Branch: name, Workspace: ws})
	}
	if _, ok := db.branches[DefaultBranch]; !ok {
		ws := NewWorkspace()
		db.branches[DefaultBranch] = ws
		db.history = append(db.history, VersionEntry{Branch: DefaultBranch, Workspace: ws})
	}
	return db, nil
}

// parseBlock parses one block's source with context in errors.
func parseBlock(name, src string) (*ast.Program, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("block %s: %w", name, err)
	}
	return prog, nil
}
