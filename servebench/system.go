package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"logicblox"
	"logicblox/internal/core"
	"logicblox/internal/durable"
	"logicblox/internal/obs"
	"logicblox/internal/replica"
	"logicblox/internal/server"
)

// storeOptions are lb-serve's -data-dir defaults: fsync on every
// commit, a checkpoint every 256 commits.
func storeOptions(reg *obs.Registry) durable.Options {
	return durable.Options{
		Fsync:              durable.FsyncAlways,
		CheckpointEvery:    256,
		CheckpointInterval: 30 * time.Second,
		Generations:        3,
		Obs:                reg,
	}
}

func freshDatabase() (*core.Database, error) { return logicblox.Open(), nil }

// system is one primary, assembled in-process the way lb-serve
// -data-dir does, serving on a loopback listener, and optionally a
// follower tailing it.
type system struct {
	dir   string
	reg   *obs.Registry
	store *durable.Store
	db    *core.Database
	srv   *server.Server
	http  *http.Server
	url   string
	done  chan struct{} // closed when http.Serve returns

	fstore   *durable.Store
	follower *replica.Follower
	freg     *obs.Registry
}

// start assembles the system in dir: durable.Open, Recover,
// SetCommitHook, Store.Start, server.New, Handler on a loopback
// listener. With tr set the commit hook, the checkpoint save function
// and the handler are wrapped to record spans.
func start(dir string, withFollower bool, tr *tracer) (*system, error) {
	s := &system{dir: dir, reg: logicblox.NewObsRegistry()}
	var err error
	pdir := filepath.Join(dir, "primary")
	if s.store, err = durable.Open(pdir, storeOptions(s.reg)); err != nil {
		return nil, err
	}
	if s.db, err = s.store.Recover(freshDatabase); err != nil {
		s.store.Close()
		return nil, fmt.Errorf("recovering %s: %w", pdir, err)
	}
	hook := core.CommitHook(s.store.LogCommit)
	save := durable.SaveFunc(s.db.SaveSnapshot)
	if tr != nil {
		hook = tr.wrapHook(hook, filepath.Join(pdir, "journal.lbj"))
		save = tr.wrapSave(save)
	}
	s.db.SetCommitHook(hook)
	s.store.Start(save)
	s.srv = server.New(s.db, server.Config{Obs: s.reg, Durable: s.store})
	h := s.srv.Handler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.store.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: h}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	if withFollower {
		if err := s.startFollower(filepath.Join(dir, "follower")); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// startFollower opens the follower's own data directory and starts
// tailing the primary, as lb-serve -follow does.
func (s *system) startFollower(dir string) error {
	s.freg = logicblox.NewObsRegistry()
	st, err := durable.Open(dir, storeOptions(s.freg))
	if err != nil {
		return err
	}
	db, err := st.Recover(freshDatabase)
	if err != nil {
		st.Close()
		return err
	}
	f, err := replica.New(replica.Config{PrimaryURL: s.url, Store: st, DB: db, Obs: s.freg, Logger: quietLogger})
	if err != nil {
		st.Close()
		return err
	}
	s.fstore, s.follower = st, f
	st.Start(func(w io.Writer) (uint64, error) { return f.DB().SaveSnapshot(w) })
	f.Start(context.Background())
	return nil
}

// caughtUp waits until the follower holds everything the primary has.
func (s *system) caughtUp(ctx context.Context) error {
	if s.follower == nil {
		return nil
	}
	return s.waitFollower(ctx, s.db.Seq())
}

// waitFollower waits until the follower holds seq durably: journaled by
// its store, or covered by the snapshot a resync re-anchored its store
// on. A follower that falls behind the primary's first checkpoint
// resyncs, and the records the snapshot covers never reach its journal.
func (s *system) waitFollower(ctx context.Context, seq uint64) error {
	for s.fstore.Stats().LastSeq < seq && s.follower.Status().AppliedSeq < seq {
		wctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
		err := s.fstore.WaitSeq(wctx, seq-1)
		cancel()
		if ctx.Err() != nil || errors.Is(err, durable.ErrClosed) {
			return fmt.Errorf("follower catching up to seq %d: %w", seq, errors.Join(ctx.Err(), err))
		}
	}
	return nil
}

// close stops the follower, drains and stops the server, and closes
// the stores without a final checkpoint, as a crash after the last ack
// would leave them.
func (s *system) close() error {
	if s.follower != nil {
		s.follower.Stop()
	}
	s.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	<-s.done
	err = errors.Join(err, s.store.Close())
	if s.fstore != nil {
		err = errors.Join(err, s.fstore.Close())
	}
	return err
}

// recoverPrimary reopens the primary's data directory after close and
// recovers it, returning the database, the time Open plus Recover took
// and the number of journal records replayed.
func recoverPrimary(dir string) (*core.Database, time.Duration, int, error) {
	t0 := time.Now()
	st, err := durable.Open(filepath.Join(dir, "primary"), storeOptions(nil))
	if err != nil {
		return nil, 0, 0, err
	}
	db, err := st.Recover(freshDatabase)
	el := time.Since(t0)
	replayed := st.Stats().JournalReplayed
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return db, el, replayed, err
}
