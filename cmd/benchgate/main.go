// Command benchgate compares two benchtrainer reports and fails the
// build if a perf invariant regressed beyond tolerance. It guards three
// properties:
//
//   - the swap-overlap win: a >20% drop in speedup_vs_sync on the
//     swap-bound row (dp1-hostlink) fails before a prefetch regression
//     can merge;
//   - contention scaling of the sharded hot path: the 64-device
//     Ensure ns/op in the fresh report must stay within -max-scale-degrade
//     of the 16-device point (flat curve = no cross-device lock), and
//     within -max-contend-regress of the baseline's 64-device point;
//   - the chunked-collective overlap on the dp4-comm row: the fresh
//     report's chunked comm_overlap_frac must stay within
//     -max-comm-overlap-drop (absolute points) of the baseline's, and
//     the chunked variant must not lose to the monolithic rendezvous —
//     a change that re-serializes reduction behind an all-park barrier
//     cannot merge.
//
// The scaling check compares two points from the same run on the same
// machine, so its tolerance is tight (15%); the cross-report ns check
// spans machines and is correspondingly loose (50% by default).
//
//	benchgate -old BENCH_trainer.json -new /tmp/bench.json -row dp1-hostlink -max-regress 0.20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type report struct {
	Rows []struct {
		Name    string  `json:"name"`
		Speedup float64 `json:"speedup_vs_sync"`
	} `json:"rows"`
	Comm *struct {
		Monolithic struct {
			NsPerStep int64 `json:"ns_per_step"`
		} `json:"monolithic"`
		Chunked struct {
			NsPerStep       int64   `json:"ns_per_step"`
			CommOverlapFrac float64 `json:"comm_overlap_frac"`
		} `json:"chunked"`
	} `json:"comm"`
	Contention []struct {
		Devices int   `json:"devices"`
		NsPerOp int64 `json:"ns_per_op"`
	} `json:"contention"`
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *report) speedup(path, row string) (float64, error) {
	for _, rw := range r.Rows {
		if rw.Name == row {
			if rw.Speedup <= 0 {
				return 0, fmt.Errorf("%s: row %q has non-positive speedup %g", path, row, rw.Speedup)
			}
			return rw.Speedup, nil
		}
	}
	return 0, fmt.Errorf("%s: no row named %q", path, row)
}

// contentionNs returns the ns/op at the given device count, or an
// error if the report has no such point.
func (r *report) contentionNs(path string, devs int) (int64, error) {
	for _, c := range r.Contention {
		if c.Devices == devs {
			if c.NsPerOp <= 0 {
				return 0, fmt.Errorf("%s: contention devs=%d has non-positive ns_per_op %d", path, devs, c.NsPerOp)
			}
			return c.NsPerOp, nil
		}
	}
	return 0, fmt.Errorf("%s: no contention point for devs=%d", path, devs)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}

func die(err error) {
	fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
	os.Exit(2)
}

func main() {
	var (
		oldPath     = flag.String("old", "BENCH_trainer.json", "baseline report (checked in)")
		newPath     = flag.String("new", "", "freshly generated report to gate")
		row         = flag.String("row", "dp1-hostlink", "row to compare")
		maxRegress  = flag.Float64("max-regress", 0.20, "maximum allowed fractional speedup drop")
		scaleFrom   = flag.Int("scale-from", 16, "contention scaling baseline device count")
		scaleTo     = flag.Int("scale-to", 64, "contention scaling guarded device count")
		maxScale    = flag.Float64("max-scale-degrade", 0.15, "maximum allowed ns/op growth from -scale-from to -scale-to devices")
		maxContend  = flag.Float64("max-contend-regress", 0.50, "maximum allowed cross-report ns/op growth at -scale-to devices")
		maxCommDrop = flag.Float64("max-comm-overlap-drop", 0.05, "maximum allowed absolute comm_overlap_frac drop on the dp4-comm chunked run vs baseline")
		maxCommSlow = flag.Float64("max-comm-slowdown", 0.10, "maximum allowed fractional ns_per_step excess of the chunked dp4-comm run over the monolithic run from the same report")
	)
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -new is required")
		os.Exit(2)
	}
	oldRep, err := load(*oldPath)
	if err != nil {
		die(err)
	}
	newRep, err := load(*newPath)
	if err != nil {
		die(err)
	}

	base, err := oldRep.speedup(*oldPath, *row)
	if err != nil {
		die(err)
	}
	cur, err := newRep.speedup(*newPath, *row)
	if err != nil {
		die(err)
	}
	drop := (base - cur) / base
	fmt.Printf("benchgate: %s speedup_vs_sync baseline %.3f, current %.3f (drop %.1f%%, limit %.0f%%)\n",
		*row, base, cur, 100*drop, 100**maxRegress)
	if drop > *maxRegress {
		fail("FAIL: %s regressed %.1f%% > %.0f%%", *row, 100*drop, 100**maxRegress)
	}

	// Chunked-collective checks. The speedup comparison pairs two runs
	// from the same fresh report (machine speed cancels; the tolerance
	// absorbs scheduler noise). The overlap comparison crosses reports
	// but is an absolute fraction, so it too is machine-independent.
	// Reports predating the comm row carry no comm object; skip with a
	// note so the gate can bootstrap.
	if newRep.Comm == nil {
		fmt.Printf("benchgate: note: %s has no dp4-comm data; skipping chunked-collective checks\n", *newPath)
	} else {
		mono, chk := newRep.Comm.Monolithic.NsPerStep, newRep.Comm.Chunked.NsPerStep
		if mono <= 0 || chk <= 0 {
			die(fmt.Errorf("%s: dp4-comm has non-positive ns_per_step (monolithic %d, chunked %d)", *newPath, mono, chk))
		}
		slow := float64(chk-mono) / float64(mono)
		fmt.Printf("benchgate: dp4-comm monolithic %d, chunked %d ns/step (excess %.1f%%, limit %.0f%%)\n",
			mono, chk, 100*slow, 100**maxCommSlow)
		if slow > *maxCommSlow {
			fail("FAIL: chunked collectives run %.1f%% slower than the monolithic rendezvous (> %.0f%%); reduction is re-serialized",
				100*slow, 100**maxCommSlow)
		}
		if oldRep.Comm == nil {
			fmt.Printf("benchgate: note: baseline has no dp4-comm data; skipping comm-overlap check\n")
		} else {
			baseFrac, curFrac := oldRep.Comm.Chunked.CommOverlapFrac, newRep.Comm.Chunked.CommOverlapFrac
			fmt.Printf("benchgate: dp4-comm comm_overlap_frac baseline %.3f, current %.3f (drop %.3f, limit %.3f)\n",
				baseFrac, curFrac, baseFrac-curFrac, *maxCommDrop)
			if baseFrac-curFrac > *maxCommDrop {
				fail("FAIL: chunked comm overlap dropped %.3f > %.3f vs baseline; collectives no longer hide behind compute",
					baseFrac-curFrac, *maxCommDrop)
			}
		}
	}

	// Scaling check: two points of the same run, so machine speed
	// cancels out. The fresh report must have the curve; a missing
	// point means the benchmark was dropped, which is itself a failure.
	nsFrom, err := newRep.contentionNs(*newPath, *scaleFrom)
	if err != nil {
		die(err)
	}
	nsTo, err := newRep.contentionNs(*newPath, *scaleTo)
	if err != nil {
		die(err)
	}
	growth := float64(nsTo-nsFrom) / float64(nsFrom)
	fmt.Printf("benchgate: contention %d->%d devices %d -> %d ns/op (growth %.1f%%, limit %.0f%%)\n",
		*scaleFrom, *scaleTo, nsFrom, nsTo, 100*growth, 100**maxScale)
	if growth > *maxScale {
		fail("FAIL: Ensure hot path degrades %.1f%% from %d to %d devices (> %.0f%%); a cross-device lock is back on the claim path",
			100*growth, *scaleFrom, *scaleTo, 100**maxScale)
	}

	// Cross-report absolute check at the guarded point. Baselines
	// predating the contention curve are skipped with a note rather
	// than failed, so the gate can bootstrap.
	if baseNs, err := oldRep.contentionNs(*oldPath, *scaleTo); err != nil {
		fmt.Printf("benchgate: note: baseline has no contention data (%v); skipping cross-report check\n", err)
	} else {
		rg := float64(nsTo-baseNs) / float64(baseNs)
		fmt.Printf("benchgate: contention devs=%d baseline %d, current %d ns/op (growth %.1f%%, limit %.0f%%)\n",
			*scaleTo, baseNs, nsTo, 100*rg, 100**maxContend)
		if rg > *maxContend {
			fail("FAIL: %d-device Ensure ns/op regressed %.1f%% > %.0f%% vs baseline",
				*scaleTo, 100*rg, 100**maxContend)
		}
	}

	fmt.Println("benchgate: PASS")
}
