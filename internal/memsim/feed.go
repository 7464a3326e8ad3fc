package memsim

import (
	"sync"

	"racetrack/hifi/internal/trace"
)

// The access loop reads every core's accesses from a feed that one
// producer goroutine draws ahead of it. Drawing a stream costs a math.Log
// per gap and a math.Pow per Zipf draw; on the producer that work overlaps
// the loop on another CPU instead of sitting on its critical path.
//
// Each core owns feedChunks chunks of feedChunk accesses. A chunk cycles
// between the two sides: the loop hands a chunk it has read to the refill
// queue, and the producer draws the core's next accesses into it and
// sends it on the core's ready channel. The producer serves refills in
// the order they were handed back. Each ready channel holds every chunk
// its core owns, so the producer never blocks on a send; it blocks only
// while the refill queue is empty. It draws each core's source exactly
// AccessesPerCore times, in order, then exits; stop closes the refill
// queue, which ends it sooner.
const (
	feedChunk  = 256 // accesses per chunk
	feedChunks = 2   // chunks per core
)

type feed struct {
	cores []feedCore
	// refill queues the chunks the loop has read: chunk k of core c as
	// c*feedChunks + k. Its buffer holds every chunk, so the loop never
	// blocks handing one back.
	refill chan int
	done   sync.WaitGroup
	// fault is a panic recovered from a source. The producer sets it
	// before it closes the ready channels, and the loop re-raises it when
	// it finds its core's channel closed.
	fault any
}

// feedCore is one core's part of the feed: the loop reads the chunk buf
// at i, and the producer draws src into the chunk a refill names. The
// chunks lie between the two sides' fields, which keeps the loop's
// per-access writes apart from the producer's fields.
type feedCore struct {
	buf   []trace.Access
	i     int
	chunk int // index of buf's chunk in chunks

	chunks [feedChunks][feedChunk]trace.Access

	src   Source
	left  int // accesses still to draw
	ready chan filled
}

// filled is chunk k of a core, with n accesses drawn into it.
type filled struct{ k, n int }

// start builds each core's source and starts the producer. The caller
// must call stop once the run is over, however it ends.
func (f *feed) start(w trace.Workload, cfg Config) {
	f.cores = make([]feedCore, cfg.Cores)
	f.refill = make(chan int, cfg.Cores*feedChunks)
	for i := range f.cores {
		c := &f.cores[i]
		switch {
		case cfg.Sources != nil:
			c.src = cfg.Sources[i]
		case cfg.Mix != nil:
			// Multiprogrammed: each core runs its own program in a
			// disjoint address-space slice.
			c.src = &offsetSource{
				inner: trace.NewGenerator(cfg.Mix[i], 0, cfg.Seed+uint64(i)),
				base:  uint64(i) << 36, // 64 GB apart
			}
		default:
			c.src = trace.NewGenerator(w, i, cfg.Seed)
		}
		c.left = cfg.AccessesPerCore
		c.ready = make(chan filled, feedChunks)
	}
	// Every chunk starts out handed back, each core's first chunk first.
	for k := 0; k < feedChunks; k++ {
		for i := range f.cores {
			f.refill <- i*feedChunks + k
		}
	}
	f.done.Add(1)
	go f.produce(cfg.Cores * cfg.AccessesPerCore)
}

// next returns core's next access, waiting for the producer when the core
// has read its chunk.
func (f *feed) next(core int) trace.Access {
	c := &f.cores[core]
	if c.i == len(c.buf) {
		f.advance(core, c)
	}
	a := c.buf[c.i]
	c.i++
	return a
}

// advance hands c's chunk back and waits for the core's next one. It
// re-raises a source's panic when the producer has stopped on one.
func (f *feed) advance(core int, c *feedCore) {
	if c.buf != nil {
		f.refill <- core*feedChunks + c.chunk
	}
	r, ok := <-c.ready
	if !ok {
		panic(f.fault)
	}
	c.buf = c.chunks[r.k][:r.n]
	c.i = 0
	c.chunk = r.k
}

// produce draws total accesses into the chunks the refill queue names.
func (f *feed) produce(total int) {
	defer f.done.Done()
	defer func() {
		if r := recover(); r != nil {
			f.fault = r
		}
		for i := range f.cores {
			close(f.cores[i].ready)
		}
	}()
	for chunk := range f.refill {
		c := &f.cores[chunk/feedChunks]
		k := chunk % feedChunks
		n := min(feedChunk, c.left)
		if n == 0 {
			continue
		}
		src := c.src
		for i := range c.chunks[k][:n] {
			c.chunks[k][i] = src.Next()
		}
		c.left -= n
		c.ready <- filled{k, n}
		if total -= n; total == 0 {
			return
		}
	}
}

// stop ends the producer and returns once it has exited. The producer
// may first fill the chunks already queued, at most feedChunks a core.
func (f *feed) stop() {
	close(f.refill)
	f.done.Wait()
}
