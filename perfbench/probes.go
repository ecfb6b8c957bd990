package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"clustereval/internal/bench/osu"
	"clustereval/internal/core"
	"clustereval/internal/experiment"
	"clustereval/internal/interconnect"
	"clustereval/internal/journal"
	"clustereval/internal/sched"
	"clustereval/internal/topology"
	"clustereval/internal/units"
)

// Probe sizes: enough calls that each mean is steady, few enough that all
// probes together take about a second.
const (
	probeSpecs    = 240  // unique specs the experiment and mpisim probes run
	probeRounds   = 10   // passes of the sched probe over Table IV's node counts
	probeHopReps  = 20   // passes of the hops probe over every node pair
	probeAppends  = 1000 // journal appends: the p99 has ten samples beyond it
	probeIngests  = 400  // replica ingests
	probeCanonRep = 5    // passes of the canonicalize probe over its specs
)

// probe times the layers' public functions on inputs taken from the
// workloads, after the timed phase, and adds the results to m.layers.
func probe(ctx context.Context, o options, m *measured) error {
	if m.layers == nil {
		m.layers = map[string]float64{}
	}
	out := m.layers
	pair := experiment.PairWithSeed(o.seed)
	fab, err := interconnect.NewTofuD(pair.Arm, pair.Arm.Nodes)
	if err != nil {
		return err
	}
	torus, ok := fab.Topo.(*topology.Torus)
	if !ok {
		return fmt.Errorf("CTE-Arm fabric topology is %T, not a torus", fab.Topo)
	}
	nodes := torus.Nodes()

	// sched: the topology-aware allocations Table IV's application rows make.
	calls, t0 := 0, time.Now()
	for range probeRounds {
		for _, n := range core.TableIVNodes() {
			if _, err := sched.New(fab.Topo, sched.TopologyAware, 1).Allocate(n); err != nil {
				return err
			}
			calls++
		}
	}
	out["sched.allocate_us"] = us(time.Since(t0)) / float64(calls)

	// topology and interconnect: every ordered node pair, as Figs. 4 and 5.
	sink := 0
	calls, t0 = 0, time.Now()
	for range probeHopReps {
		for a := range nodes {
			for b := range nodes {
				if a != b {
					sink += torus.Hops(a, b)
					calls++
				}
			}
		}
	}
	out["topology.hops_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
	var total units.Seconds
	calls, t0 = 0, time.Now()
	for e := 0; e <= 24; e++ { // Fig. 5's message sizes, 1 B .. 16 MiB
		size := units.Bytes(int64(1) << e)
		for a := range nodes {
			for b := range nodes {
				if a != b {
					total += fab.MessageTime(a, b, size, 0)
					calls++
				}
			}
		}
	}
	out["interconnect.message_time_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
	if sink == 0 || total <= 0 {
		return fmt.Errorf("topology probes computed nothing")
	}

	// experiment and mpisim: a stream of cache-missing jobs.
	specs := make([]experiment.Spec, probeSpecs)
	for i := range specs {
		if specs[i], _, err = experiment.Canonicalize(uniqueSpec(o.seed, i)); err != nil {
			return err
		}
	}
	runTime, runs := map[string]time.Duration{}, map[string]int{}
	var pairTime time.Duration
	pairs := 0
	for _, s := range specs {
		t0 := time.Now()
		if _, err := experiment.Run(ctx, s); err != nil {
			return err
		}
		runTime[s.Kind] += time.Since(t0)
		runs[s.Kind]++
		if s.Kind != experiment.KindNet {
			continue
		}
		seeded := experiment.PairWithSeed(s.Seed).Arm
		f, err := interconnect.New(seeded, seeded.Nodes)
		if err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := osu.MeasurePairContext(ctx, f, s.SrcNode, s.DstNode, units.Bytes(s.SizeBytes), s.Iters); err != nil {
			return err
		}
		pairTime += time.Since(t0)
		pairs++
	}
	for kind, d := range runTime {
		out["experiment.run_us."+kind] = us(d) / float64(runs[kind])
	}
	out["mpisim.measure_pair_us"] = ratio(us(pairTime), float64(pairs))

	// canonicalize: cache-missing jobs and fleet-hot's submissions.
	var inputs []experiment.Spec
	for i := range probeSpecs {
		inputs = append(inputs, uniqueSpec(o.seed, i))
	}
	for _, body := range hotReplay(o.seed) {
		var s experiment.Spec
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			return err
		}
		inputs = append(inputs, s)
	}
	t0 = time.Now()
	for range probeCanonRep {
		for _, s := range inputs {
			if _, _, err := experiment.Canonicalize(s); err != nil {
				return err
			}
		}
	}
	out["experiment.canonicalize_us"] = us(time.Since(t0)) / float64(probeCanonRep*len(inputs))

	// journal: the workload's appends, then one hit's two frames ingested
	// by a follower, to fresh files in the run's temp directory.
	appends := m.appends
	if appends == nil {
		if appends, err = jobAppends(ctx, specs[0]); err != nil {
			return err
		}
	}
	if err := probeJournal(o.dir, appends, out); err != nil {
		return err
	}
	return probeReplica(o.dir, appends, out)
}

// jobAppends are the three journal appends a durable clusterd makes for
// one job that misses the cache.
func jobAppends(ctx context.Context, s experiment.Spec) ([][]journal.Record, error) {
	norm, key, err := experiment.Canonicalize(s)
	if err != nil {
		return nil, err
	}
	res, err := experiment.Run(ctx, norm)
	if err != nil {
		return nil, err
	}
	spec, err := json.Marshal(norm)
	if err != nil {
		return nil, err
	}
	result, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	return [][]journal.Record{
		{{Type: journal.TypeSubmitted, JobID: "j000001", At: now, Spec: spec, Key: key}},
		{{Type: journal.TypeStarted, JobID: "j000001", At: now}},
		{{Type: journal.TypeDone, JobID: "j000001", At: now, Attempt: 1, Result: result}},
	}, nil
}

func probeJournal(dir string, appends [][]journal.Record, out map[string]float64) error {
	j, _, err := journal.Open(filepath.Join(dir, "probe-journal.wal"))
	if err != nil {
		return err
	}
	lat := make([]time.Duration, probeAppends)
	for i := range lat {
		t0 := time.Now()
		if err := j.Append(appends[i%len(appends)]...); err != nil {
			j.Close()
			return err
		}
		lat[i] = time.Since(t0)
	}
	if err := j.Close(); err != nil {
		return err
	}
	out["journal.append_us_p50"] = us(percentile(lat, 0.5))
	out["journal.append_us_p99"] = us(percentile(lat, 0.99))
	return nil
}

// probeReplica ingests, per call, the two frames a cache hit ships: the
// submitted record and a done record.
func probeReplica(dir string, appends [][]journal.Record, out map[string]float64) error {
	var sub, done journal.Record
	for _, batch := range appends {
		for _, r := range batch {
			switch r.Type {
			case journal.TypeSubmitted:
				sub = r
			case journal.TypeDone:
				done = r
			}
		}
	}
	done.Cached = true
	store, err := journal.OpenReplicaStore(filepath.Join(dir, "probe-replicas"))
	if err != nil {
		return err
	}
	lat := make([]time.Duration, probeIngests)
	for i := range lat {
		seq := uint64(2*i + 1)
		frames := []journal.Frame{{Src: "s0", Seq: seq, Rec: sub}, {Src: "s0", Seq: seq + 1, Rec: done}}
		t0 := time.Now()
		if _, err := store.Ingest(frames); err != nil {
			store.Close()
			return err
		}
		lat[i] = time.Since(t0)
	}
	if err := store.Close(); err != nil {
		return err
	}
	out["journal.replica_ingest_us"] = us(percentile(lat, 0.5))
	return nil
}
