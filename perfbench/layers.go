package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"dynshap"
	"dynshap/internal/coalesce"
	"dynshap/internal/dataset"
	"dynshap/internal/utility"
)

// Helpers the knn and serve traced runs share: the no-op coalescer, the
// journal encoding, the Prefixer walk, and journal summaries.

// nopExecutor resolves every window at once, so driving bursts through a
// coalescer built on it times the pipeline's own overhead.
type nopExecutor struct{ version, n int }

func (e *nopExecutor) ExecAdd(points []dataset.Point) (coalesce.Batch, error) {
	e.version++
	b := coalesce.Batch{Version: e.version, Base: e.n}
	e.n += len(points)
	return b, nil
}

func (e *nopExecutor) ExecDelete(indices []int) (coalesce.Batch, error) {
	e.version++
	e.n -= len(indices)
	return coalesce.Batch{Version: e.version}, nil
}

// coalesceOverhead drives one window's submissions through a no-op
// coalescer and waits for every future.
func coalesceOverhead(c *coalesce.Coalescer, points []dataset.Point, dels []int) error {
	hs := make([]*coalesce.Handle, 0, len(points)+len(dels))
	for _, p := range points {
		hs = append(hs, c.SubmitAdd(p))
	}
	for _, i := range dels {
		hs = append(hs, c.SubmitDelete([]int{i}))
	}
	for _, h := range hs {
		if _, err := h.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// encodeRecords JSON-encodes each record the way the server's journal
// tail does, one line per record, timing each encode under parent.
func encodeRecords(l *lane, recs []dynshap.UpdateRecord, parents, reqs []int64) (sizes []float64, err error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, u := range recs {
		buf.Reset()
		l.timed(parents[i], reqs[i], "journal.Encode", func() { err = enc.Encode(u) })
		if err != nil {
			return nil, err
		}
		sizes = append(sizes, float64(buf.Len()))
	}
	return sizes, nil
}

// prefixAddNS times n-step walks through a utility's public Prefixer in a
// fixed random order and returns the median cost of one step in ns.
func prefixAddNS(u *utility.ModelUtility, seed uint64) float64 {
	n := u.N()
	order := rand.New(rand.NewPCG(seed, refSalt)).Perm(n)
	ev := u.Prefix()
	var per []float64
	for rep := 0; rep < 200; rep++ {
		start := time.Now()
		ev.Reset()
		for _, p := range order {
			ev.Add(p)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(per)
}

// writeRecords returns the journal's write records (everything but init).
func writeRecords(hist []dynshap.UpdateRecord) []dynshap.UpdateRecord {
	var out []dynshap.UpdateRecord
	for _, u := range hist {
		if u.Op == "add" || u.Op == "delete" {
			out = append(out, u)
		}
	}
	return out
}

// windowCounts counts write records by the algorithm they were routed to.
func windowCounts(rep *report, recs []dynshap.UpdateRecord) {
	counts := map[string]int{}
	for _, u := range recs {
		counts[u.Algo]++
	}
	note := fmt.Sprintf("journal of one round, %d windows", len(recs))
	rep.layer("plan.windows.delta_batch", float64(counts[dynshap.AlgoDeltaBatch.String()]), note)
	rep.layer("plan.windows.pivot_batch", float64(counts[dynshap.AlgoPivotSameBatch.String()]), note)
	rep.layer("plan.windows.exact", float64(counts[dynshap.AlgoExactKNN.String()]), note)
}

// recordMeans returns the mean per-record permutations, prefix adds,
// trainings, window points and algorithm time (ms) of write records. The
// time is a mean, not a median: add and delete windows can differ by an
// order of magnitude, and a median of the two would fall between them.
func recordMeans(recs []dynshap.UpdateRecord) (perms, prefix, trainings, points, algoMS float64) {
	for _, u := range recs {
		perms += float64(u.Permutations)
		prefix += float64(u.PrefixAdds)
		trainings += float64(u.Trainings)
		points += float64(len(u.Points) + len(u.Indices))
		algoMS += u.Seconds * 1e3
	}
	k := float64(len(recs))
	return perms / k, prefix / k, trainings / k, points / k, algoMS / k
}
