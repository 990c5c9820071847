package main

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload.
var endToEnd = []metricSpec{
	{"ops_per_cpu_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"setup_s", "s"},
	{"rss_mb", "MiB"},
}

// perLayer are the metrics of single layers, reported by every traced run.
// A layer a workload does not reach reads 0 (engine-bank bypasses the
// client, connection, scheduler and kv layers; only kv-write crashes).
var perLayer = []metricSpec{
	// Client side: internal/wire or text encoding, pipelining, the socket.
	{"client.encode_ns", "ns"},
	{"client.decode_ns", "ns"},
	{"client.cpu_us_per_op", "us"},
	{"net.outside_server_us", "us"},
	// cmd/craftykv connection layer.
	{"conn.bytes_in_per_op", "B"},
	{"conn.bytes_out_per_op", "B"},
	{"conn.responses_per_flush", "count"},
	{"wire.frames_per_op", "count"},
	{"conn.protocol_errors", "count"},
	{"server.cpu_us_per_op", "us"},
	// cmd/craftykv scheduler.
	{"sched.residence_us", "us"},
	{"sched.drain_batch_mean", "count"},
	// internal/kv.
	{"kv.groups_per_op", "count"},
	{"kv.group_ops_mean", "count"},
	{"kv.fallbacks_per_op", "count"},
	{"kv.rehash_batches", "count"},
	{"kv.space_amp", "ratio"},
	{"kv.apply_us", "us"},
	{"kv.self_us", "us"},
	// internal/core.
	{"core.txns_per_op", "count"},
	{"core.redo_share", "ratio"},
	{"core.validate_share", "ratio"},
	{"core.sgl_share", "ratio"},
	{"core.read_only_share", "ratio"},
	{"core.writes_per_txn", "count"},
	{"core.log_wraps_per_ktxn", "count"},
	{"core.atomic_us", "us"},
	{"core.atomic_read_us", "us"},
	// internal/htm.
	{"htm.commits_per_txn", "count"},
	{"htm.conflict_aborts_per_txn", "count"},
	{"htm.explicit_aborts_per_txn", "count"},
	{"htm.capacity_aborts_per_txn", "count"},
	{"htm.commit_ratio", "ratio"},
	// internal/nvm.
	{"nvm.flushed_lines_per_op", "count"},
	{"nvm.fences_per_op", "count"},
	{"nvm.drains_per_op", "count"},
	{"nvm.write_amp", "ratio"},
	// internal/alloc.
	{"alloc.free_words_ratio", "ratio"},
	{"alloc.live_words_per_key", "count"},
	// Recovery (core, kv).
	{"recovery.server_s", "s"},
	{"recovery.rolled_back", "count"},
	{"recovery.verified_shards", "count"},
	// The benchmark itself.
	{"trace.overhead", "ratio"},
}

// layerInputs is everything the per-layer metrics are computed from: the
// instrument deltas over the untraced window (server INFO for served
// workloads, the in-process engine for engine-bank) and what the client and
// the traced runs observed.
type layerInputs struct {
	d         delta
	ops       float64 // operations completed in the untraced window
	served    bool
	clientLat float64 // mean client latency in the window, ns
	serverCPU float64 // seconds
	userBytes float64 // bytes the window's writes carried (key+value, or 8 per engine word)
	liveBytes float64 // live user data at the window's end
	keys      float64

	clientTracers []*tracer     // traced window (served)
	replay        *replayResult // in-process replay (served)
	bankTracers   []*tracer     // traced window (engine-bank)
	crash         *crashResult  // kv-write's crash, after the traced window

	untracedTput, tracedTput float64
}

// layerMetrics computes every per-layer metric.
func layerMetrics(in layerInputs) map[string]float64 {
	d, ops := in.d, in.ops
	txns := d.get("core.txns")
	htmAborts := d.sum("htm.aborts.conflict", "htm.aborts.capacity", "htm.aborts.explicit", "htm.aborts.zero")
	m := map[string]float64{
		"core.txns_per_op":            ratio(txns, ops),
		"core.redo_share":             ratio(d.get("core.outcomes.redo"), txns),
		"core.validate_share":         ratio(d.get("core.outcomes.validate"), txns),
		"core.sgl_share":              ratio(d.get("core.outcomes.sgl"), txns),
		"core.read_only_share":        ratio(d.get("core.outcomes.read_only"), txns),
		"core.writes_per_txn":         ratio(d.get("core.writes"), txns-d.get("core.outcomes.read_only")),
		"core.log_wraps_per_ktxn":     ratio(1000*d.get("core.log.wraps"), txns),
		"htm.commits_per_txn":         ratio(d.get("htm.commits"), txns),
		"htm.conflict_aborts_per_txn": ratio(d.get("htm.aborts.conflict"), txns),
		"htm.explicit_aborts_per_txn": ratio(d.get("htm.aborts.explicit"), txns),
		"htm.capacity_aborts_per_txn": ratio(d.get("htm.aborts.capacity"), txns),
		"htm.commit_ratio":            ratio(d.get("htm.commits"), d.get("htm.commits")+htmAborts),
		"nvm.flushed_lines_per_op":    ratio(d.get("nvm.flushed_lines"), ops),
		"nvm.fences_per_op":           ratio(d.get("nvm.fences"), ops),
		"nvm.drains_per_op":           ratio(d.get("nvm.drains"), ops),
		"nvm.write_amp":               ratio(64*d.get("nvm.flushed_lines"), in.userBytes),
		"alloc.free_words_ratio":      ratio(float64(d.after["arena.free_words"]), float64(d.after["arena.used_words"])),
		"trace.overhead":              ratio(in.untracedTput-in.tracedTput, in.untracedTput),
	}
	if in.served {
		residence := d.mean("sched.op_latency_ns")
		// The client polls its sockets, so its process CPU time is its whole
		// CPU; its cost per request is the time it spends encoding,
		// flushing and decoding, from the traced windows' spans.
		var busy, reqs float64
		for _, t := range in.clientTracers {
			busy += float64(t.total[spanEncode] + t.total[spanFlush] + t.total[spanDecode])
			reqs += float64(t.count[spanDecode])
		}
		m["client.cpu_us_per_op"] = ratio(busy, 1000*reqs)
		m["net.outside_server_us"] = (in.clientLat - residence) / 1000
		m["conn.bytes_in_per_op"] = ratio(d.get("conn.bytes_in"), ops)
		m["conn.bytes_out_per_op"] = ratio(d.get("conn.bytes_out"), ops)
		m["conn.responses_per_flush"] = d.mean("conn.burst_responses")
		m["wire.frames_per_op"] = ratio(d.get("wire.frames"), ops)
		m["conn.protocol_errors"] = d.sum("conn.protocol_errors", "wire.protocol_errors")
		m["server.cpu_us_per_op"] = ratio(1e6*in.serverCPU, ops)
		m["sched.residence_us"] = residence / 1000
		m["sched.drain_batch_mean"] = d.mean("sched.drain_batch")
		m["kv.groups_per_op"] = ratio(d.get("kv.apply.groups"), ops)
		m["kv.group_ops_mean"] = d.mean("kv.apply.group_ops")
		m["kv.fallbacks_per_op"] = ratio(d.get("kv.apply.fallbacks"), ops)
		m["kv.rehash_batches"] = d.sum("kv.rehash.zero_batches", "kv.rehash.migrate_batches")
		m["kv.space_amp"] = ratio(8*float64(d.after["arena.live_words"]), in.liveBytes)
		m["alloc.live_words_per_key"] = ratio(float64(d.after["arena.live_words"]), in.keys)
		m["client.encode_ns"] = meanNs(spanEncode, in.clientTracers...)
		m["client.decode_ns"] = meanNs(spanDecode, in.clientTracers...)
	}
	if r := in.replay; r != nil {
		calls := float64(r.split.parents)
		m["kv.apply_us"] = ratio(float64(r.split.total), 1000*calls)
		m["kv.self_us"] = ratio(float64(r.split.self), 1000*calls)
		m["core.atomic_us"] = r.atomicNs / 1000
		m["core.atomic_read_us"] = r.atomicReadNs / 1000
	}
	if in.bankTracers != nil {
		m["core.atomic_us"] = meanNs(spanAtomic, in.bankTracers...) / 1000
	}
	if c := in.crash; c != nil {
		cd := delta{c.before, c.after}
		m["recovery.server_s"] = cd.get("srv.recovery_ns.sum") / 1e9
		m["recovery.rolled_back"] = c.rolledBack
		m["recovery.verified_shards"] = c.verifiedShards
	}
	for _, s := range perLayer {
		if _, ok := m[s.name]; !ok {
			m[s.name] = 0
		}
	}
	return m
}
