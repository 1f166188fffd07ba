package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// layersTolerance is how far the traced loop's summed span self times
// may stray from its wall time (per caller) before the run fails: the
// layers must add up to the end-to-end time.
const layersTolerance = 0.05

// span is one timed call at a layer boundary. Spans of one operation
// share Trace; Parent is the ID of the enclosing span (0 for a root).
type span struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced run's spans in memory; it is safe for
// concurrent use (daemon clients record from their own goroutines).
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	next   int64
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a span and returns its ID. A nil recorder records
// nothing and returns 0, so untraced code paths call it freely.
func (r *recorder) add(name string, trace, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	id := r.newID()
	r.addWithID(id, name, trace, parent, start, end)
	return id
}

// addWithID records a span under an identifier taken from newID.
func (r *recorder) addWithID(id int64, name string, trace, parent int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, Trace: trace, ID: id, Parent: parent,
		Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds(),
	})
}

// newID returns a fresh identifier for an operation's trace, or for a
// span whose end is not known yet (recorded later with addWithID).
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// selfTimes returns each span name's summed self time: its duration
// minus the part of its interval covered by its children.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// since returns the spans recorded after the first n.
func (r *recorder) since(n int) []span {
	all := r.snapshot()
	return all[min(n, len(all)):]
}

// count is the number of spans recorded so far.
func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// layersShare is the summed self time of spans over the callers' summed
// loop time: 1 when the spans tile every caller's loop exactly.
func layersShare(spans []span, callerTime time.Duration) float64 {
	var sum time.Duration
	for _, d := range selfTimes(spans) {
		sum += d
	}
	return ratio(float64(sum), float64(callerTime))
}

// checkLayers fails when the traced loop's layers do not add up to its
// wall time within layersTolerance.
func checkLayers(share float64) error {
	if share < 1-layersTolerance || share > 1+layersTolerance {
		return fmt.Errorf("layer self times sum to %.3f of the loop's wall time, want 1 ± %.2f", share, layersTolerance)
	}
	return nil
}

// printSelfTimes writes the per-name self-time breakdown of every span.
func (r *recorder) printSelfTimes(w io.Writer) {
	st := selfTimes(r.snapshot())
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]] > st[names[j]] })
	fmt.Fprintln(w, "span self times:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %12.3f ms\n", n, ms(st[n]))
	}
}

// write stores the spans as JSON Lines under .bench_build/trace in the
// working directory and returns the file's path.
func (r *recorder) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
