package main

import (
	"net/http"
	"strings"

	"mcopt/internal/obs"
)

// layerValues computes the per-layer metrics of a traced phase: client and
// server spans of the traced jobs, runner RPC spans, /metrics deltas,
// process counters, the artifacts' search counts, and the replay.
func layerValues(window []*jobObs, a, b mark, recorded []span, rp *replayResult, checks map[*jobObs]artifactCheck) map[string]float64 {
	m := map[string]float64{}
	for k, v := range rp.metrics {
		m[k] = v
	}
	lo, hi := a.p.at, b.p.at
	var ok []*jobObs
	for _, j := range window {
		if j.err == nil && j.doneAt.After(lo) && !j.doneAt.After(hi) {
			ok = append(ok, j)
		}
	}
	n := float64(len(ok))
	perJob := func(x float64) float64 { return ratio(x, n) }

	// Client and server spans of the traced jobs.
	var submit, first, result, records, self, replicaDur, replicaOver []float64
	clientTraces := map[string]bool{}
	var spans []span
	var moves, accepted, exch, exchAcc float64
	for _, j := range ok {
		c := checks[j]
		moves += float64(c.moves)
		accepted += float64(c.accepted)
		exch += float64(c.exchanges)
		exchAcc += float64(c.exchAccepted)
		records = append(records, float64(j.records))
		if !j.traced {
			continue
		}
		submit = append(submit, ms(j.submit))
		first = append(first, ms(j.first))
		result = append(result, ms(j.result))
		clientTraces["client/"+j.id] = true
		spans = append(spans, j.server...)
		var queueRun int64
		for _, s := range j.server {
			switch s.name {
			case "queue", "run":
				queueRun += s.end - s.start
			case "replica":
				// The overhead is the part of the replica's wall-time span
				// that neither its nil-hook compute, replayed alone after the
				// phase, nor a median journal append covers: the hook tee plus
				// any wait for a CPU under the phase's load.
				if s.run >= 0 {
					d := float64(s.end - s.start)
					engine := float64(rp.engine[engineKey{j.spec, s.run}].Nanoseconds())
					journal := m["checkpoint.append_p50_us"] * 1e3
					replicaDur = append(replicaDur, d)
					replicaOver = append(replicaOver, max(0, d-engine-journal))
				}
			}
		}
		if len(j.server) > 0 {
			self = append(self, ms(j.done())-float64(queueRun)/1e6)
		}
	}
	tracedServer := spans
	var rpc []span
	for _, s := range recorded {
		if clientTraces[s.trace] {
			spans = append(spans, s)
		}
		// Recording is on only during the traced phase, so every runner
		// span belongs to it.
		if strings.HasPrefix(s.trace, "runner/") {
			rpc = append(rpc, s)
		}
	}
	m["service.submit_p50_ms"] = percentile(submit, 0.5)
	m["service.submit_p99_ms"] = percentile(submit, 0.99)
	m["service.first_event_p50_ms"] = percentile(first, 0.5)
	m["service.result_p50_ms"] = percentile(result, 0.5)
	m["service.queue_wait_p50_ms"] = percentile(durationsMS(tracedServer, "queue"), 0.5)
	m["service.queue_wait_p90_ms"] = percentile(durationsMS(tracedServer, "queue"), 0.9)
	m["service.run_p50_ms"] = percentile(durationsMS(tracedServer, "run"), 0.5)
	m["service.commit_p50_ms"] = percentile(durationsMS(tracedServer, "commit"), 0.5)
	m["service.replica_p50_ms"] = percentile(durationsMS(tracedServer, "replica"), 0.5)
	m["service.self_p50_ms"] = percentile(self, 0.5)
	m["service.stream_records_per_job"] = ratio(sum(records), n)
	m["service.replica_overhead_share"] = ratio(sum(replicaOver), sum(replicaDur))

	// Runner RPCs and compute.
	var acquire, renew, commit []float64
	var idle, granted float64
	for _, s := range rpc {
		d := float64(s.end-s.start) / 1e6
		switch s.name {
		case "runner.acquire":
			acquire = append(acquire, d)
			switch s.status {
			case http.StatusNoContent:
				idle++
			case http.StatusOK:
				granted++
			}
		case "runner.renew":
			renew = append(renew, d)
		case "runner.commit":
			commit = append(commit, d)
		}
		spans = append(spans, s)
	}
	m["runnerclient.acquire_p50_ms"] = percentile(acquire, 0.5)
	m["runnerclient.renew_p50_ms"] = percentile(renew, 0.5)
	m["runnerclient.commit_p50_ms"] = percentile(commit, 0.5)
	m["runnerclient.commit_p99_ms"] = percentile(commit, 0.99)
	m["runnerclient.compute_p50_ms"] = percentile(durationsMS(rpc, "runner.compute"), 0.5)
	m["runnerclient.idle_polls_per_job"] = perJob(idle)
	m["runnerclient.retried"] = float64(b.runnerRetried - a.runnerRetried)
	m["lease.useful_acquire_ratio"] = ratio(granted, float64(len(acquire)))

	// Server counters.
	d := func(name string, labels map[string]string) float64 { return counterDelta(a.exp, b.exp, name, labels) }
	m["service.requests_per_job"] = perJob(d("mcoptd_http_requests_total", nil))
	m["service.rejected"] = d("mcoptd_submit_rejected_total", nil)
	m["service.retried"] = float64(b.retried - a.retried)
	m["archive.records_per_job"] = perJob(d("mcoptd_jobs_retired_total", nil))
	m["lease.grants_per_job"] = perJob(d("mcoptd_leases_granted_total", nil))
	m["lease.stolen_per_job"] = perJob(d("mcoptd_leases_granted_total", map[string]string{"mode": "stolen"}))
	m["lease.expired"] = d("mcoptd_leases_expired_total", nil)
	m["lease.commit_conflicts"] = d("mcoptd_lease_commits_total", map[string]string{"result": "epoch"}) +
		d("mcoptd_lease_commits_total", map[string]string{"result": "not_held"}) +
		d("mcoptd_lease_commits_total", map[string]string{"result": "duplicate"})

	// Engine guards, from the artifacts (the same on every execution path).
	m["core.moves_per_job"] = perJob(moves)
	m["core.accept_ratio"] = ratio(accepted, moves)
	m["core.exchange_accept_ratio"] = ratio(exchAcc, exch)

	// Process and host.
	pd := delta(a.p, b.p)
	m["io.write_bytes_per_job"] = perJob(float64(pd.wchar))
	m["io.write_calls_per_job"] = perJob(float64(pd.syscw))
	m["go.alloc_bytes_per_job"] = perJob(pd.allocBytes)
	m["go.allocs_per_job"] = perJob(pd.allocs)
	m["go.gc_cpu_share"] = pd.gcShare
	m["process.cpu_util"] = pd.cpuUtil
	m["host.cpu_steal_share"] = pd.steal

	for name, t := range selfTimes(spans) {
		m[selfMetric(name)] = perJob(ms(t))
	}
	return m
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// counterDelta is the change in a counter family between two scrapes,
// summed over the samples whose labels include the given pairs.
func counterDelta(a, b *obs.Exposition, name string, labels map[string]string) float64 {
	if a == nil || b == nil {
		return 0
	}
	return b.Sum(name, labels) - a.Sum(name, labels)
}
