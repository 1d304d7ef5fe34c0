package simd

import (
	"sync"
	"sync/atomic"
)

// wscratch is one worker's private accumulation between commits:
// occupancy-count and live-count deltas (commutative, reduced by the
// coordinator in any order) and the lowest word where a PE newly went
// idle (lowers the spawn free cursor).
type wscratch struct {
	cntDelta   []int64
	cntTouched bool
	liveDelta  int64
	minIdleW   int
}

func newWScratch(nStates int) *wscratch {
	return &wscratch{
		cntDelta: make([]int64, nStates),
		minIdleW: int(^uint(0) >> 1),
	}
}

// chunkPool stripes chunk execution across worker goroutines. Each
// forChunks pass resets an atomic cursor; workers claim chunk IDs from
// it until exhausted. Chunks are word-aligned slices of the PE space,
// so chunk-local writes never share a mask word or cache-line-order
// dependency with another chunk, and all cross-chunk effects are
// buffered per chunk and replayed in chunk-ID order by the coordinator
// — results are byte-identical at any worker count.
type chunkPool struct {
	m      *vm
	fn     func(ws *wscratch, c int) error
	cursor atomic.Int64
	wake   []chan struct{} // index 0 (the coordinator) unused
	done   chan struct{}
	wg     sync.WaitGroup
}

func newChunkPool(m *vm, workers int) *chunkPool {
	pl := &chunkPool{
		m:    m,
		wake: make([]chan struct{}, workers),
		done: make(chan struct{}, workers-1),
	}
	for i := 1; i < workers; i++ {
		ch := make(chan struct{})
		pl.wake[i] = ch
		ws := m.wss[i]
		pl.wg.Add(1)
		go func() {
			defer pl.wg.Done()
			for range ch {
				pl.work(ws)
				pl.done <- struct{}{}
			}
		}()
	}
	return pl
}

func (pl *chunkPool) work(ws *wscratch) {
	chunks := pl.m.chunks
	for {
		c := int(pl.cursor.Add(1)) - 1
		if c >= len(chunks) {
			return
		}
		chunks[c].err = pl.fn(ws, c)
	}
}

// stop shuts the workers down; safe to call exactly once, after the
// final forChunks pass has fully drained.
func (pl *chunkPool) stop() {
	for i := 1; i < len(pl.wake); i++ {
		close(pl.wake[i])
	}
	pl.wg.Wait()
}

// forChunks runs fn once per chunk: in ascending chunk order when no
// pool exists (Workers <= 1 or a single chunk), else on the coordinator
// alongside the woken workers. A failing chunk records its error (and,
// in a multi-slot pass, the body slot it failed at) and the pass runs
// every other chunk regardless, so the failure sequential slot-by-slot
// execution reaches first always runs. That failure is the lowest
// (slot, chunk) pair, which forChunks returns. (The extra work after an
// error is harmless: Run discards all state on error.)
func (m *vm) forChunks(fn func(ws *wscratch, c int) error) (slot int, err error) {
	if pl := m.pool; pl == nil {
		for c := range m.chunks {
			m.chunks[c].err = fn(m.wss[0], c)
		}
	} else {
		pl.fn = fn
		pl.cursor.Store(0)
		for i := 1; i < len(m.wss); i++ {
			pl.wake[i] <- struct{}{}
		}
		pl.work(m.wss[0])
		for i := 1; i < len(m.wss); i++ {
			<-pl.done
		}
	}
	for c := range m.chunks {
		ch := &m.chunks[c]
		if ch.err == nil {
			continue
		}
		if err == nil || ch.slot < slot {
			slot, err = ch.slot, ch.err
		}
		ch.err, ch.slot = nil, 0
	}
	return slot, err
}
