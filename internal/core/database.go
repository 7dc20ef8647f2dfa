package core

import (
	"fmt"
	"sort"
	"sync"
)

// Database manages named branches of workspaces and the version history
// (paper §2.2.2 Branch/Delete-branch, §3.1). Because workspaces are
// immutable values over persistent structures, Branch is an O(1) pointer
// copy, commit is a pointer swap, and any historical version can itself
// be branched (time travel); the version graph is an arbitrary DAG.
type Database struct {
	mu       sync.RWMutex
	branches map[string]*Workspace
	history  []VersionEntry
	// seq numbers every state-changing operation; snapshots record it so
	// journal replay (internal/durable) knows where a snapshot ends.
	seq uint64
	// hook, when set, is invoked under the write lock before a recorded
	// mutation takes effect; an error vetoes the mutation (write-ahead
	// logging: a commit that cannot be journaled does not happen).
	hook CommitHook
}

// CommitRecord describes one recorded state-changing operation in enough
// detail to replay it through the normal transaction path (the paper's
// T4 #5 recovery story: re-deriving from logic + base deltas rather than
// restoring physical state). Kind is one of "exec", "addblock",
// "branch", "branchat", "delete", "promote".
type CommitRecord struct {
	// Seq is assigned by the database under the commit lock; it is
	// strictly increasing across all recorded operations.
	Seq    uint64
	Kind   string
	Branch string // transaction branch (exec, addblock)
	Name   string // block name (addblock)
	Src    string // LogiQL source (exec, addblock)
	From   string // source branch (branch, promote)
	To     string // target branch (branch, branchat, delete, promote)
	// Version is the history index for branchat.
	Version int
}

// CommitHook observes recorded mutations before they take effect,
// typically appending them to a durable journal. It runs under the
// database write lock, so implementations must not call back into the
// database; returning an error aborts the mutation.
type CommitHook func(CommitRecord) error

// SetCommitHook installs (or, with nil, removes) the commit hook.
func (db *Database) SetCommitHook(h CommitHook) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.hook = h
}

// Seq returns the sequence number of the last state-changing operation.
func (db *Database) Seq() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.seq
}

// AlignSeq raises the sequence counter to at least min. Callers swapping
// one database for another under a shared journal (POST /load) use it so
// journal sequence numbers stay monotonic across the swap.
func (db *Database) AlignSeq(min uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.seq < min {
		db.seq = min
	}
}

// logLocked assigns the next sequence number to rec and runs the commit
// hook. Callers hold db.mu. On hook failure the sequence number is
// consumed (gaps are fine — replay only needs monotonic order) and the
// caller must not apply the mutation.
func (db *Database) logLocked(rec *CommitRecord) error {
	db.seq++
	rec.Seq = db.seq
	if db.hook == nil {
		return nil
	}
	if err := db.hook(*rec); err != nil {
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	return nil
}

// VersionEntry records one committed workspace version.
type VersionEntry struct {
	Branch    string
	Workspace *Workspace
}

// DefaultBranch is the branch created by NewDatabase.
const DefaultBranch = "main"

// NewDatabase returns a database with an empty workspace on "main".
func NewDatabase() *Database { return NewDatabaseWith(NewWorkspace()) }

// NewDatabaseWith returns a database whose main branch starts at ws —
// the hook the functional options of logicblox.Open use to configure
// the root workspace (optimizer, observer) before the first commit.
func NewDatabaseWith(ws *Workspace) *Database {
	return &Database{
		branches: map[string]*Workspace{DefaultBranch: ws},
		history:  []VersionEntry{{Branch: DefaultBranch, Workspace: ws}},
	}
}

// Workspace returns the current workspace of a branch.
func (db *Database) Workspace(branch string) (*Workspace, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ws, ok := db.branches[branch]
	if !ok {
		return nil, fmt.Errorf("unknown branch %s: %w", branch, ErrNoSuchBranch)
	}
	return ws, nil
}

// Branch creates branch `to` as a copy of branch `from`. This is O(1):
// no data is copied (paper §3.1).
func (db *Database) Branch(from, to string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	src, ok := db.branches[from]
	if !ok {
		return fmt.Errorf("unknown branch %s: %w", from, ErrNoSuchBranch)
	}
	if _, exists := db.branches[to]; exists {
		return fmt.Errorf("branch %s: %w", to, ErrBranchExists)
	}
	if err := db.logLocked(&CommitRecord{Kind: "branch", From: from, To: to}); err != nil {
		return err
	}
	db.branches[to] = src
	return nil
}

// BranchAt creates a branch from a historical version index (time travel).
func (db *Database) BranchAt(version int, to string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if version < 0 || version >= len(db.history) {
		return fmt.Errorf("version %d out of range: %w", version, ErrNoSuchBranch)
	}
	if _, exists := db.branches[to]; exists {
		return fmt.Errorf("branch %s: %w", to, ErrBranchExists)
	}
	if err := db.logLocked(&CommitRecord{Kind: "branchat", Version: version, To: to}); err != nil {
		return err
	}
	db.branches[to] = db.history[version].Workspace
	return nil
}

// DeleteBranch drops a branch. Aborting all its work is just dropping the
// reference.
func (db *Database) DeleteBranch(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if name == DefaultBranch {
		return fmt.Errorf("cannot delete %s", DefaultBranch)
	}
	if _, ok := db.branches[name]; !ok {
		return fmt.Errorf("unknown branch %s: %w", name, ErrNoSuchBranch)
	}
	if err := db.logLocked(&CommitRecord{Kind: "delete", To: name}); err != nil {
		return err
	}
	delete(db.branches, name)
	return nil
}

// installLocked makes ws the head of branch and appends it to the
// version history — the pointer swap every commit ends in. Callers hold
// db.mu and have checked that branch exists.
func (db *Database) installLocked(branch string, ws *Workspace) {
	db.branches[branch] = ws
	db.history = append(db.history, VersionEntry{Branch: branch, Workspace: ws})
}

// Commit makes ws the new head of branch and records it in the history.
// Conceptually just a pointer swap (paper T4). Commit bypasses the
// commit hook — a workspace value carries no replayable request — so
// embedders running with a durability journal must use CommitIf (or
// Promote for pointer-swap merges) instead.
func (db *Database) Commit(branch string, ws *Workspace) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.branches[branch]; !ok {
		return fmt.Errorf("unknown branch %s: %w", branch, ErrNoSuchBranch)
	}
	db.seq++
	db.installLocked(branch, ws)
	return nil
}

// Promote makes branch from's head the new head of branch to (a
// pointer-swap commit, e.g. merging an accepted what-if scenario back,
// paper §2.2.2). Unlike Commit it is fully described by its branch
// names, so it goes through the commit hook and is replayable.
func (db *Database) Promote(from, to string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	src, ok := db.branches[from]
	if !ok {
		return fmt.Errorf("unknown branch %s: %w", from, ErrNoSuchBranch)
	}
	if _, ok := db.branches[to]; !ok {
		return fmt.Errorf("unknown branch %s: %w", to, ErrNoSuchBranch)
	}
	if err := db.logLocked(&CommitRecord{Kind: "promote", From: from, To: to}); err != nil {
		return err
	}
	db.installLocked(to, src)
	return nil
}

// CommitIf is the optimistic-concurrency commit (paper §3.4's snapshot
// model): it makes ws the new head of branch only if the head is still
// parent — the snapshot the transaction executed against. If another
// transaction committed in between, it returns ErrConflict and the
// caller repairs or re-executes against the new head, or surfaces the
// conflict. rec describes the request (kind, source, block name) that
// produced ws; rec.Branch and rec.Seq are filled in here. Only if the
// compare-and-swap succeeds is rec passed to the commit hook, before the
// head moves: a hook failure rejects the commit with ErrDurability and
// leaves the branch untouched, so under a durability journal an
// acknowledged commit is always recoverable. The check, the hook and the
// history append are atomic under the database lock.
func (db *Database) CommitIf(branch string, parent, ws *Workspace, rec CommitRecord) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	head, ok := db.branches[branch]
	if !ok {
		return fmt.Errorf("unknown branch %s: %w", branch, ErrNoSuchBranch)
	}
	if head != parent {
		return fmt.Errorf("branch %s moved since snapshot: %w", branch, ErrConflict)
	}
	rec.Branch = branch
	if err := db.logLocked(&rec); err != nil {
		return err
	}
	db.installLocked(branch, ws)
	return nil
}

// ApplyRecord re-executes one journaled operation through the normal
// transaction path (recovery, paper T4 #5: derived state is re-computed,
// not restored). It must run before SetCommitHook installs a hook —
// replay must not re-journal itself — and records must be applied in
// ascending Seq order. After each record the database's sequence counter
// is pinned to rec.Seq so post-recovery commits continue the journal's
// numbering.
func (db *Database) ApplyRecord(rec CommitRecord) error {
	var next *Workspace
	var err error
	switch rec.Kind {
	case "exec", "addblock":
		next, err = db.replayTxn(rec)
	case "branch":
		err = db.Branch(rec.From, rec.To)
	case "branchat":
		err = db.BranchAt(rec.Version, rec.To)
	case "delete":
		err = db.DeleteBranch(rec.To)
	case "promote":
		err = db.Promote(rec.From, rec.To)
	default:
		err = fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	if err != nil {
		return fmt.Errorf("replay seq %d (%s): %w", rec.Seq, rec.Kind, err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if next != nil {
		db.installLocked(rec.Branch, next)
	}
	db.seq = rec.Seq
	return nil
}

// replayTxn re-runs a journaled exec or addblock on its branch's head.
func (db *Database) replayTxn(rec CommitRecord) (*Workspace, error) {
	ws, err := db.Workspace(rec.Branch)
	if err != nil {
		return nil, err
	}
	if rec.Kind == "addblock" {
		return ws.AddBlock(rec.Name, rec.Src)
	}
	res, err := ws.Exec(rec.Src)
	if err != nil {
		return nil, err
	}
	return res.Workspace, nil
}

// Branches lists branch names.
func (db *Database) Branches() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.branches))
	for b := range db.branches {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Versions returns the number of committed versions.
func (db *Database) Versions() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.history)
}

// VersionAt returns the i-th committed version.
func (db *Database) VersionAt(i int) (VersionEntry, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if i < 0 || i >= len(db.history) {
		return VersionEntry{}, fmt.Errorf("version %d out of range", i)
	}
	return db.history[i], nil
}
