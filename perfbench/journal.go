package main

import (
	"math/rand"
	"sort"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/txn"
)

// lateShifts are the positions a late parent lands past its attach
// position in the journal concurrent devices write: the 20 vigintile
// midpoints of 702 records journaled after one of their own children, from
// eight 1000-reading fills by 8 devices on a gateway journaling to
// chaos.MemFS without a sync delay (TestConcurrentJournalShape measures
// them). Those fills had 60-118 such records (median 86.5), replay deferred
// 953-994 of 1001 records and took 19-35 passes (median 27.5).
var lateShifts = []int{1, 3, 4, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 17, 20, 24, 30, 44}

// displace returns a journal order for n records given in attach order:
// out[k] is the attach index of the k-th journal record. Concurrent
// submitters journal after attaching, outside any shared lock, so a
// record can reach the journal after records that attached later than
// it. Here late records land lateShifts positions late: one at a seeded
// position in each of late equal blocks of the attach order, each shift
// used equally often in a seeded assignment. Replay defers nearly every
// record after a late one and takes a pass per late parent in a chain,
// so spreading the late records evenly and fixing the multiset of shifts
// keeps the replay cost about the same from seed to seed. The order
// depends on the seed alone, never on the scheduler.
func displace(n int, seed int64, late int) []int {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64(i)
	}
	if late > 0 && n >= late {
		block := n / late
		perm := rng.Perm(late)
		for b := 0; b < late; b++ {
			i := b*block + rng.Intn(block)
			// The half keeps a late record from tying with the record
			// it lands next to.
			keys[i] += float64(lateShifts[perm[b]%len(lateShifts)]) + 0.5
		}
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	sort.SliceStable(out, func(a, b int) bool { return keys[out[a]] < keys[out[b]] })
	return out
}

// inversions counts the pairs of records the journal holds in the
// opposite order from their attachment.
func inversions(order []int) int {
	a := append([]int(nil), order...)
	tmp := make([]int, len(a))
	var count func(lo, hi int) int
	count = func(lo, hi int) int {
		if hi-lo < 2 {
			return 0
		}
		mid := (lo + hi) / 2
		n := count(lo, mid) + count(mid, hi)
		i, j, k := lo, mid, lo
		for i < mid && j < hi {
			if a[j] < a[i] {
				n += mid - i
				tmp[k] = a[j]
				j++
			} else {
				tmp[k] = a[i]
				i++
			}
			k++
		}
		k += copy(tmp[k:], a[i:mid])
		copy(tmp[k:], a[j:hi])
		copy(a[lo:hi], tmp[lo:hi])
		return n
	}
	return count(0, len(a))
}

// replayPasses follows a journal's parent links the way the node's
// journal replay does: one scan in journal order that defers every
// record with a parent not yet replayed, then passes over the deferred
// records, in journal order, until none is left. It returns how many
// records the scan deferred, how many passes followed it, and how many
// records replay tried to attach in all, each try checking a signature.
// Records already present before the journal (genesis) are in known.
func replayPasses(journal []*txn.Transaction, known map[hashutil.Hash]bool) (deferred, passes, tries int) {
	have := make(map[hashutil.Hash]bool, len(known)+len(journal))
	for id := range known {
		have[id] = true
	}
	try := func(ts []*txn.Transaction) []*txn.Transaction {
		tries += len(ts)
		var left []*txn.Transaction
		for _, t := range ts {
			if have[t.Trunk] && have[t.Branch] {
				have[t.ID()] = true
			} else {
				left = append(left, t)
			}
		}
		return left
	}
	rest := try(journal)
	deferred = len(rest)
	for len(rest) > 0 {
		left := try(rest)
		passes++
		if len(left) == len(rest) {
			break // never resolves: replay would reject the journal
		}
		rest = left
	}
	return deferred, passes, tries
}

// journalShape describes a journal against the attach order it came
// from.
type journalShape struct {
	records    int
	inversions int
	// lateShifts holds, for every record journaled after one of its own
	// children, how many positions past its attach position it landed.
	lateShifts []int
	deferred   int // records replay's first scan defers
	passes     int // replay passes over the deferred records
	tries      int // attach attempts replay makes in all
}

// shapeOf compares a journal with the attach order of the same records.
func shapeOf(attached, journal []*txn.Transaction, known map[hashutil.Hash]bool) journalShape {
	attachPos := make(map[hashutil.Hash]int, len(attached))
	for i, t := range attached {
		attachPos[t.ID()] = i
	}
	journalPos := make(map[hashutil.Hash]int, len(journal))
	order := make([]int, len(journal))
	for k, t := range journal {
		journalPos[t.ID()] = k
		order[k] = attachPos[t.ID()]
	}
	s := journalShape{records: len(journal), inversions: inversions(order)}
	lateParents := make(map[hashutil.Hash]bool)
	for k, t := range journal {
		for _, parent := range []hashutil.Hash{t.Trunk, t.Branch} {
			if pk, ok := journalPos[parent]; ok && pk > k {
				lateParents[parent] = true
			}
		}
	}
	for k, t := range journal {
		if lateParents[t.ID()] {
			s.lateShifts = append(s.lateShifts, k-attachPos[t.ID()])
		}
	}
	s.deferred, s.passes, s.tries = replayPasses(journal, known)
	return s
}
