// Package serve is the long-lived query path over the Portal engine:
// a registry of immutable, refcounted dataset snapshots, a dispatcher
// that runs each query on its caller's goroutine the moment a
// traversal worker is free (one worker budget shared by all in-flight
// queries), and an HTTP JSON API (cmd/portald) with a thin Go client
// (internal/serve/client).
//
// The registry follows the MVCC snapshot-handle pattern: each named
// dataset resolves to an immutable Snapshot (points + built tree)
// holding a reference count. Readers acquire a handle, run any number
// of traversals against it — trees are immutable after build, and
// engine.ExecuteOnChecked's concurrency contract makes shared use
// safe — and release it. Replacing a dataset builds the new snapshot's
// tree off to the side, atomically swaps the head, and drops the
// registry's reference on the old snapshot; the old version is
// reclaimed (its refcount drains to zero) only after every in-flight
// query over it finishes, so readers never block on writers and never
// observe a torn tree.
//
// # Panics
//
// The package panics at one site: Snapshot.Release on a snapshot
// released more times than it was acquired, with a message starting
// "serve: " (a negative refcount could unmap a snapshot a query still
// reads). A panic inside a query's execution is recovered by execute
// and answered as an error; that recover is the package's only
// containment layer.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"portal/internal/problems"
	"portal/internal/storage"
	"portal/internal/tree"
)

// ErrUnknownDataset is the sentinel for queries naming a dataset the
// registry has no head for. Callers dispatch on it with errors.Is —
// never by matching error text.
var ErrUnknownDataset = errors.New("unknown dataset")

// Snapshot is one immutable version of a named dataset: the point
// storage and its built tree. The registry's head reference keeps it
// alive between queries; each in-flight query holds one additional
// reference.
type Snapshot struct {
	// Name is the dataset name this snapshot was published under.
	Name string
	// Version is the registry-wide monotone version stamped at Put.
	Version int64
	// Data is the immutable point storage. The server publishes and
	// restores the tree's own (Tree.Data): the points in tree order.
	Data *storage.Storage
	// Tree is the snapshot's built tree, shared read-only by every
	// query (self-joins bind it on both sides).
	Tree *tree.Tree
	// BuildNS is the tree-build wall time recorded at publish.
	BuildNS int64

	// sigma is Silverman's bandwidth for Data, the KDE default,
	// computed on first use over Data's order, which a restore keeps.
	sigmaOnce sync.Once
	sigma     float64

	// refs starts at 1 — the registry's head reference — and is
	// CAS-incremented by Acquire only while still positive, so a
	// handle can never resurrect a snapshot already being reclaimed.
	refs     atomic.Int64
	reclaim  func(*Snapshot)
	released atomic.Bool
}

// silverman returns problems.SilvermanBandwidth(s.Data), computed once
// per snapshot.
func (s *Snapshot) silverman() float64 {
	s.sigmaOnce.Do(func() { s.sigma = problems.SilvermanBandwidth(s.Data) })
	return s.sigma
}

// Refs reports the current reference count (the registry head counts
// as one while the snapshot is live).
func (s *Snapshot) Refs() int64 { return s.refs.Load() }

// acquire takes a reference iff the snapshot is still live.
func (s *Snapshot) acquire() bool {
	for {
		n := s.refs.Load()
		if n <= 0 {
			return false
		}
		if s.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops one reference. When the count drains to zero the
// snapshot is reclaimed: the registry's reclaim hook runs exactly
// once, and no further Acquire can succeed. Releasing more times than
// acquired panics — a negative refcount means a snapshot backed by an
// mmap could be unmapped while a query still reads it, so the bug must
// fail loudly at the offending Release, not as a later fault.
func (s *Snapshot) Release() {
	n := s.refs.Add(-1)
	if n < 0 {
		panic(fmt.Sprintf("serve: snapshot %q v%d released more times than acquired", s.Name, s.Version))
	}
	if n == 0 {
		if s.reclaim != nil && s.released.CompareAndSwap(false, true) {
			s.reclaim(s)
		}
	}
}

// RegistryStats is the registry's observability snapshot.
type RegistryStats struct {
	// Datasets is the number of live named heads.
	Datasets int `json:"datasets"`
	// SnapshotsCreated counts every Put since startup.
	SnapshotsCreated int64 `json:"snapshots_created"`
	// SnapshotsReclaimed counts snapshots whose refcount drained to
	// zero. Created − Reclaimed − Datasets is the number of retired
	// versions still pinned by in-flight queries.
	SnapshotsReclaimed int64 `json:"snapshots_reclaimed"`
}

// Registry maps dataset names to their current head snapshot.
type Registry struct {
	mu        sync.Mutex
	heads     map[string]*Snapshot
	version   atomic.Int64
	created   atomic.Int64
	reclaimed atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{heads: make(map[string]*Snapshot)}
}

// Put publishes a new snapshot as the head for name, returning it.
// The caller builds data's tree off to the side before calling, so
// the swap under the lock is a pointer exchange; the previous head's
// registry reference is released after the swap, deferring its
// reclaim to the last in-flight query.
func (r *Registry) Put(name string, data *storage.Storage, t *tree.Tree, buildNS int64) *Snapshot {
	return r.PutBacked(name, data, t, buildNS, nil)
}

// PutBacked is Put for snapshots whose tree aliases an external
// resource — a persist mmap. onReclaim runs exactly once, after the
// refcount drains to zero, so the mapping is released only when no
// query can still be reading through it.
func (r *Registry) PutBacked(name string, data *storage.Storage, t *tree.Tree, buildNS int64, onReclaim func()) *Snapshot {
	s := &Snapshot{
		Name:    name,
		Version: r.version.Add(1),
		Data:    data,
		Tree:    t,
		BuildNS: buildNS,
		reclaim: func(*Snapshot) {
			r.reclaimed.Add(1)
			if onReclaim != nil {
				onReclaim()
			}
		},
	}
	s.refs.Store(1)
	r.created.Add(1)
	r.mu.Lock()
	old := r.heads[name]
	r.heads[name] = s
	r.mu.Unlock()
	if old != nil {
		old.Release()
	}
	return s
}

// Acquire resolves name to its current head and takes a reference on
// it. The caller must Release the snapshot when done.
func (r *Registry) Acquire(name string) (*Snapshot, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.heads[name]
	if s == nil {
		return nil, false
	}
	// Under the lock the head still holds its registry reference, so
	// acquire cannot race with the final Release.
	if !s.acquire() {
		return nil, false
	}
	return s, true
}

// Drop removes name's head, releasing the registry reference; the
// snapshot is reclaimed once in-flight queries drain.
func (r *Registry) Drop(name string) bool {
	r.mu.Lock()
	s := r.heads[name]
	delete(r.heads, name)
	r.mu.Unlock()
	if s == nil {
		return false
	}
	s.Release()
	return true
}

// List returns the current heads (order unspecified).
func (r *Registry) List() []*Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Snapshot, 0, len(r.heads))
	for _, s := range r.heads {
		out = append(out, s)
	}
	return out
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	n := len(r.heads)
	r.mu.Unlock()
	return RegistryStats{
		Datasets:           n,
		SnapshotsCreated:   r.created.Load(),
		SnapshotsReclaimed: r.reclaimed.Load(),
	}
}
