package main

import (
	"math/rand/v2"
	"time"
)

// newTarget pre-encodes every request body and returns the workload's
// traffic source over st. Encoding happens before traffic starts, so the
// client spends no time on it during a phase.
func (b *bench) newTarget(url string) *target {
	w := b.w
	qs := b.data.Queries
	tg := &target{
		url:    url,
		rec:    b.rec,
		delRng: rand.New(rand.NewPCG(b.seed, 3)),
		warm:   true,
	}
	tg.bodies = make([][]byte, len(qs))
	for i, q := range qs {
		tg.bodies[i] = searchBody(q)
	}
	tg.inserts = make([][]byte, len(b.inserts))
	for i, v := range b.inserts {
		tg.inserts[i] = insertBody(v)
	}
	if w.pool > 0 {
		// A fixed Zipf over the first w.pool queries: rank r is query r for
		// every seed, so the seed draws the sequence but not which query is
		// hot (pool queries differ in cost). The warm-up cycles through the
		// whole pool to fill the caches.
		z := newZipf(w.pool, hotZipfS)
		tg.pick = func(r *rand.Rand, seq int) op {
			if tg.warm {
				return op{kind: opSearch, idx: seq % w.pool}
			}
			return op{kind: opSearch, idx: z.draw(r)}
		}
		return tg
	}

	// Distinct queries: the measured phases walk the pool upward from 0, the
	// warm-up walks a reserved tail.
	reserve := warmupReserve(w)
	main := len(qs) - reserve
	var mainCur, warmCur, insCur int
	tg.pick = func(r *rand.Rand, seq int) op {
		kind := opSearch
		if w.insertFrac > 0 {
			switch u := r.Float64(); {
			case u >= w.searchFrac+w.insertFrac:
				kind = opDelete
			case u >= w.searchFrac:
				kind = opInsert
			}
		}
		switch kind {
		case opInsert:
			insCur++
			return op{kind: opInsert, idx: (insCur - 1) % len(tg.inserts)}
		case opDelete:
			// The target is an acked insert chosen at send time; idx is
			// the fallback search if none is acked yet.
			mainCur++
			return op{kind: opDelete, idx: (mainCur - 1) % main}
		}
		if tg.warm {
			warmCur++
			return op{kind: opSearch, idx: main + (warmCur-1)%reserve}
		}
		mainCur++
		return op{kind: opSearch, idx: (mainCur - 1) % main}
	}
	return tg
}

// warmup is the unmeasured traffic at the high rate that opens every run.
// After a one-second warm-up the first measured window still cost the
// server up to a fifth more CPU per operation than later ones (measured on
// inmem_highdim); after three seconds it does not.
const warmup = 3 * time.Second

// warmupReserve is how many distinct queries the warm-up draws from.
func warmupReserve(w *workload) int { return int(w.highRate*warmup.Seconds()*1.1) + 16 }
