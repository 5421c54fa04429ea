package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// span is one timed call into a layer. Spans of one op share op; parent is
// the index of the span that caused this one, or -1 for an op's root.
type span struct {
	start, end int64 // ns since the tracer's epoch; end < 0 while open
	parent     int32
	op         int32
	name       uint16 // index into tracer.names
}

// spanBlock is the number of spans in one block of span storage.
const spanBlock = 1 << 16

// tracer keeps every span of a traced run in memory and writes them out
// only when the run ends, so recording costs an append under a mutex.
// Spans are stored in blocks mapped outside the Go heap: a heap full of
// spans would raise the garbage collector's target and make the program
// collect less often in traced and untraced sections alike.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	ids    map[string]uint16
	names  []string
	blocks [][]span
	n      int

	spans []span // every span, copied onto the heap by finish
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), ids: make(map[string]uint16)} }

// now returns the monotonic time since the epoch in ns.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// put stores a span and returns its id; t.mu must be held.
func (t *tracer) put(name string, start, end int64, parent, op int) int {
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.ids[name] = id
		t.names = append(t.names, name)
	}
	if t.n == len(t.blocks)*spanBlock {
		t.blocks = append(t.blocks, newSpanBlock())
	}
	t.blocks[t.n/spanBlock][t.n%spanBlock] = span{start: start, end: end, parent: int32(parent), op: int32(op), name: id}
	t.n++
	return t.n - 1
}

// newSpanBlock maps one block of span storage outside the Go heap, or
// allocates it on the heap when mapping fails.
func newSpanBlock() []span {
	size := spanBlock * int(unsafe.Sizeof(span{}))
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]span, spanBlock)
	}
	return unsafe.Slice((*span)(unsafe.Pointer(&b[0])), spanBlock)
}

// open starts a span and returns its id; close ends it.
func (t *tracer) open(name string, parent, op int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.put(name, start, -1, parent, op)
}

func (t *tracer) close(id int) {
	end := t.now()
	t.mu.Lock()
	t.blocks[id/spanBlock][id%spanBlock].end = end
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, start, end int64, parent, op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.put(name, start, end, parent, op)
}

// finish copies the spans onto the heap for analysis, once recording is
// over. Mapped blocks are not unmapped: they live as long as the process.
func (t *tracer) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = make([]span, 0, t.n)
	for i, b := range t.blocks {
		t.spans = append(t.spans, b[:min(spanBlock, t.n-i*spanBlock)]...)
	}
}

// durations returns the durations in ns of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	id, ok := t.ids[name]
	if !ok {
		return nil
	}
	for _, s := range t.spans {
		if s.name == id && s.end >= 0 {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// selfTimes returns, for every closed span named name, its duration minus
// the part of its interval that its children cover. Children of one span
// may overlap (the processes of a job save concurrently), so the covered
// part is the union of their intervals, clipped to the parent.
func (t *tracer) selfTimes(name string) []float64 {
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	var out []float64
	id, ok := t.ids[name]
	if !ok {
		return nil
	}
	for i, s := range t.spans {
		if s.name != id || s.end < 0 {
			continue
		}
		out = append(out, float64(s.end-s.start-covered(children[int32(i)], s.start, s.end)))
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores every span as a gzip-compressed TSV file: id, parent, op,
// name, start_ns, end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\top\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.op, t.names[s.name], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
