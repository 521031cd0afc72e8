package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// neighbor is one returned neighbor as it crosses the wire.
type neighbor struct {
	ID   uint32  `json:"id"`
	Dist float64 `json:"dist"`
}

// searchReply is the part of the /v1/search envelope the checks read.
type searchReply struct {
	Neighbors []neighbor `json:"neighbors"`
	K         int        `json:"k"`
	Partial   bool       `json:"partial"`
}

// sqDist is the benchmark's own squared Euclidean distance. The clones'
// coordinates are integers in [0,255], so every partial sum is an exact
// float64 integer and any summation order gives the same bits.
func sqDist(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// sqDistBelow is sqDist abandoned once a partial sum reaches bound; ok
// reports a full sum below it. Partial sums only grow, so abandoning never
// drops a point that belongs in the top-k.
func sqDistBelow(a, b []float32, bound float64) (float64, bool) {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
		if i&63 == 63 && s >= bound {
			return s, false
		}
	}
	return s, s < bound
}

// checker validates responses against the benchmark's own vectors.
type checker struct {
	k      int
	vector func(id uint32) ([]float32, bool) // vector of a live or once-live ID

	mu         sync.Mutex
	violations int      // guarded by mu
	examples   []string // guarded by mu: the first few violations
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations++
	if len(c.examples) < 10 {
		c.examples = append(c.examples, fmt.Sprintf(format, args...))
	}
}

// checkSearch validates one 200 /v1/search body for query q: k neighbors,
// ascending distances, known and distinct IDs, each distance equal to the
// exact distance from q, and not partial. It returns the decoded neighbors.
func (c *checker) checkSearch(q []float32, body []byte) []neighbor {
	var r searchReply
	if err := json.Unmarshal(body, &r); err != nil {
		c.fail("undecodable search response: %v", err)
		return nil
	}
	if r.Partial {
		c.fail("response marked partial")
	}
	if len(r.Neighbors) != c.k {
		c.fail("response has %d neighbors, want %d", len(r.Neighbors), c.k)
	}
	seen := make(map[uint32]bool, len(r.Neighbors))
	for i, nb := range r.Neighbors {
		if i > 0 && nb.Dist < r.Neighbors[i-1].Dist {
			c.fail("neighbors not sorted: %g after %g", nb.Dist, r.Neighbors[i-1].Dist)
		}
		if seen[nb.ID] {
			c.fail("duplicate neighbor ID %d", nb.ID)
		}
		seen[nb.ID] = true
		v, ok := c.vector(nb.ID)
		if !ok {
			c.fail("unknown neighbor ID %d", nb.ID)
			continue
		}
		if exact := math.Sqrt(sqDist(q, v)); nb.Dist != exact {
			c.fail("ID %d: returned distance %v, exact %v", nb.ID, nb.Dist, exact)
		}
	}
	return r.Neighbors
}

// exactTopK is an exact top-k by brute force over the live vectors.
func exactTopK(vectors [][]float32, live func(id uint32) bool, q []float32, k int) []neighbor {
	best := make([]neighbor, 0, k+1)
	bound := math.Inf(1)
	for i, v := range vectors {
		if live != nil && !live(uint32(i)) {
			continue
		}
		d, ok := sqDistBelow(q, v, bound)
		if !ok {
			continue
		}
		j := sort.Search(len(best), func(j int) bool { return best[j].Dist > d })
		best = append(best, neighbor{})
		copy(best[j+1:], best[j:])
		best[j] = neighbor{ID: uint32(i), Dist: d}
		if len(best) > k {
			best = best[:k]
		}
		if len(best) == k {
			bound = best[k-1].Dist
		}
	}
	for i := range best {
		best[i].Dist = math.Sqrt(best[i].Dist)
	}
	return best
}

// groundTruth computes exactTopK for every query on conns goroutines.
func groundTruth(vectors [][]float32, live func(uint32) bool, queries [][]float32, k int) [][]neighbor {
	out := make([][]neighbor, len(queries))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += conns {
				out[i] = exactTopK(vectors, live, queries[i], k)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// accuracy folds the paper's §3.2 overall ratio and recall@k over scored
// queries.
type accuracy struct {
	n             int
	ratio, recall float64
}

// add scores one answer against its exact top-k: the ratio is the mean of
// got[i].Dist/exact[i].Dist over ranks (rank pairs at distance 0 count 1).
func (a *accuracy) add(got, exact []neighbor, k int) {
	if len(exact) < k {
		return
	}
	var ratio float64
	for i := 0; i < k; i++ {
		switch {
		case i >= len(got):
			ratio += math.Inf(1)
		case exact[i].Dist == 0:
			ratio++
		default:
			ratio += got[i].Dist / exact[i].Dist
		}
	}
	in := make(map[uint32]bool, k)
	for _, nb := range exact[:k] {
		in[nb.ID] = true
	}
	hits := 0
	for _, nb := range got {
		if in[nb.ID] {
			hits++
		}
	}
	a.n++
	a.ratio += ratio / float64(k)
	a.recall += float64(hits) / float64(k)
}

func (a *accuracy) meanRatio() float64 {
	if a.n == 0 {
		return 0
	}
	return a.ratio / float64(a.n)
}

func (a *accuracy) meanRecall() float64 {
	if a.n == 0 {
		return 0
	}
	return a.recall / float64(a.n)
}

// updateLog is what update_mix learns from its acks: the vector behind every
// acked insert and the ack time of every acked delete.
type updateLog struct {
	base     int
	inserted map[uint32][]float32
	deleted  map[uint32]time.Time
}

func (u *updateLog) vector(data [][]float32) func(uint32) ([]float32, bool) {
	return func(id uint32) ([]float32, bool) {
		if int(id) < u.base {
			return data[id], true
		}
		v, ok := u.inserted[id]
		return v, ok
	}
}
