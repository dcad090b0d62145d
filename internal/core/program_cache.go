package core

import (
	"container/list"
	"math"
	"sync"

	"repro/internal/datatype"
	"repro/internal/fotf"
)

// The compiled-program memo cache.  A fileview's copy program depends
// only on the filetype tree, so programs are memoized process-wide and
// keyed by the same compact tree encoding that SetView registers with a
// view-capable backend (the server-side view registration payload minus
// its displacement prefix).  The key is what lets distinct Type values
// with equal trees share one program: every rank decodes its own copy of
// every exchanged view.  A Type remembers the entry it was answered with
// (lookupProgram), so the cache is asked once per type.  Handles never
// invalidate entries directly: SetView replaces the handle's program
// pointers, and the cache itself ages stale encodings out through its
// LRU cap — a re-register of a recent view (the common BTIO pattern of
// alternating views) is a hit, while a churn of distinct views evicts
// and recompiles.
const programCacheCap = 64

// compileBlocks bounds the ol-list length (datatype.Type.Blocks) of a
// type the cache compiles: a longer one declines, as a type past fotf's
// own limits does, at the cost of one comparison.  The handles leave the
// bound to fotf; the package's tests lower it, so that a short regular
// tail, which the walk takes as one group, makes a type decline.
var compileBlocks int64 = math.MaxInt64

// progEntry is one memoized compile result.  prog may be nil: a type
// that declines compilation (no data, or beyond the compile limits) is
// cached too, so the decline is not re-derived on every SetView.
type progEntry struct {
	key  string
	prog *fotf.Program
}

// programCache is an LRU map from encoded datatype trees to compiled
// programs.
type programCache struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	lru *list.List // front = most recently used; values are *progEntry
}

func newProgramCache(capacity int) *programCache {
	return &programCache{cap: capacity, m: make(map[string]*list.Element), lru: list.New()}
}

// programs is the process-wide cache; every File handle shares it, so
// the P ranks of an in-process world compile each exchanged fileview
// once, not P times.
var programs = newProgramCache(programCacheCap)

// lookup returns the memoized entry for t (whose prog may be nil when t
// declines compilation), compiling on miss.  enc is the compact tree
// encoding used as the key; pass nil to derive it from t.
func (pc *programCache) lookup(enc []byte, t *datatype.Type) (e *progEntry, hit bool) {
	if enc == nil {
		enc = datatype.Encode(t)
	}
	pc.mu.Lock()
	if el, ok := pc.m[string(enc)]; ok { // no copy of enc on the hit path
		pc.lru.MoveToFront(el)
		pc.mu.Unlock()
		return el.Value.(*progEntry), true
	}
	pc.mu.Unlock()

	// Compile outside the lock: concurrent ranks of one world may race
	// to compile the same view, and the first result in wins.
	var p *fotf.Program
	if t.Blocks() <= compileBlocks {
		p = fotf.Compile(t)
	}

	key := string(enc)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.m[key]; ok {
		pc.lru.MoveToFront(el)
		return el.Value.(*progEntry), false
	}
	e = &progEntry{key: key, prog: p}
	pc.m[key] = pc.lru.PushFront(e)
	for pc.lru.Len() > pc.cap {
		old := pc.lru.Back()
		pc.lru.Remove(old)
		delete(pc.m, old.Value.(*progEntry).key)
	}
	return e, false
}

// lookupProgram is the handle-side entry point: it returns the compiled
// program for t, accounting the hit or compile on this handle's
// Stats.  The process-wide cache is consulted once per type: the
// entry it answers with is kept in t's derived-data slot, so a type used
// again — the memtype of every collective op — costs one load and no
// encoding, and holds its program for as long as the type lives,
// whatever the LRU evicts.  enc is t's encoding where the caller has it
// at hand (a received view), else nil.  The result is nil — and the
// caller's cursor walks the tree — when t is contiguous-tiled (a single
// memmove needs no program) or declines compilation.  Only the listless
// engine asks: the list-based one flattens both sides of an access.
func (f *File) lookupProgram(enc []byte, t *datatype.Type) *fotf.Program {
	if t == nil || t.ContiguousTiled() {
		return nil
	}
	handle := &t.Derived().Prog
	e, hit := handle.Load().(*progEntry)
	if !hit {
		e, hit = programs.lookup(enc, t)
		e = handle.Store(e).(*progEntry)
	}
	if hit {
		f.Stats.ProgramCacheHits++
	} else {
		f.Stats.ProgramCompiles++
	}
	return e.prog
}
