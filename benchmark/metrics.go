package main

// The declared workloads and metrics. BENCHMARK.json at the repository
// root carries the same names, units and directions (plus the regression
// bounds); selftest_test.go fails if the two drift apart.

type workload struct {
	name    string
	backend string // inproc | shm | tcp
	size    int    // payload bytes S, the one size knob
	why     string
}

var workloads = []workload{
	{"inproc-small", "inproc", 8, "in-process zero-delay conduit, S=8 B: the wire is a function call, so core and serial are about all of the time"},
	{"shm-small", "shm", 8, "2 OS-process ranks over shm, S=8 B: per-message ring, doorbell and parked-target wake-up cost dominates"},
	{"tcp-small", "tcp", 8, "2 OS-process ranks over tcp loopback, S=8 B: every message is a frame, a syscall and a reader handoff"},
	{"tcp-bulk", "tcp", 64 << 10, "tcp loopback, S=64 KiB: the same wire and serial layers paid per byte instead of per message"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	exact  bool // a count that must repeat exactly across rounds on inproc-small
}

func (m metricDef) better() string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

// endToEnd is what a user of the runtime sees. setup_s is measured by the
// driver; the rest are the timed phases of a round, in order.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "rput_lat_us", unit: "us"},
	{name: "rget_lat_us", unit: "us"},
	{name: "amo_lat_us", unit: "us"},
	{name: "rpc_lat_us", unit: "us"},
	{name: "sigput_lat_us", unit: "us"},
	{name: "barrier_lat_us", unit: "us"},
	{name: "task_rt_lat_us", unit: "us"},
	{name: "rput_flood_mops", unit: "Mops/s", higher: true},
	{name: "rpcff_rate_kops", unit: "kops/s", higher: true},
	{name: "rpcbatch_rate_kops", unit: "kops/s", higher: true},
	{name: "dht_insert_kops", unit: "kops/s", higher: true},
}

// perLayer is what the traced run reports, layer = module name.
var perLayer = []metricDef{
	{name: "core.rput_inject_ns", unit: "ns"},
	{name: "core.rput_wait_ns", unit: "ns"},
	{name: "core.rput_op_ns", unit: "ns"},
	{name: "core.rget_inject_ns", unit: "ns"},
	{name: "core.rget_wait_ns", unit: "ns"},
	{name: "core.rget_op_ns", unit: "ns"},
	{name: "core.amo_inject_ns", unit: "ns"},
	{name: "core.amo_wait_ns", unit: "ns"},
	{name: "core.amo_op_ns", unit: "ns"},
	{name: "core.rpc_inject_ns", unit: "ns"},
	{name: "core.rpc_wait_ns", unit: "ns"},
	{name: "core.rpc_op_ns", unit: "ns"},
	{name: "core.rput_allocs_per_op", unit: "count", exact: true},
	{name: "core.rget_allocs_per_op", unit: "count", exact: true},
	{name: "core.amo_allocs_per_op", unit: "count", exact: true},
	{name: "core.rpc_allocs_per_op", unit: "count", exact: true},
	{name: "core.rpcff_allocs_per_op", unit: "count", exact: true},
	{name: "core.barrier_allocs_per_op", unit: "count", exact: true},
	{name: "core.rput_heap_B_per_op", unit: "B"},
	{name: "core.progress_empty_ns", unit: "ns"},
	{name: "core.future_then_ns", unit: "ns"},
	{name: "core.promise_fulfill_ns", unit: "ns"},
	{name: "core.lpc_rt_ns", unit: "ns"},
	{name: "core.self_us", unit: "us"},
	{name: "core.allreduce_lat_us", unit: "us"},
	{name: "core.bcast_lat_us", unit: "us"},
	{name: "serial.marshal_ns", unit: "ns"},
	{name: "serial.unmarshal_ns", unit: "ns"},
	{name: "serial.marshal_allocs", unit: "count", exact: true},
	{name: "gasnet.put_rt_us", unit: "us"},
	{name: "gasnet.get_rt_us", unit: "us"},
	{name: "gasnet.amo_rt_us", unit: "us"},
	{name: "gasnet.am_rt_us", unit: "us"},
	{name: "gasnet.frames_per_op", unit: "count"},
	{name: "gasnet.wire_B_per_op", unit: "B"},
	{name: "gasnet.ring_records_per_op", unit: "count"},
	{name: "gasnet.ring_doorbells_per_op", unit: "count"},
	{name: "gasnet.socket_fallback_ratio", unit: "ratio"},
	{name: "gasnet.msgs_per_op", unit: "count", exact: true},
	{name: "gasnet.rpcff_fence_rereads", unit: "count"},
	{name: "gasnet.rpcbatch_msgs_per_op", unit: "count", exact: true},
	{name: "gasnet.flood_wire_B_per_op", unit: "B"},
	{name: "gasnet.wake_cost_us", unit: "us"},
	{name: "gasnet.seg_alloc_free_ns", unit: "ns"},
	{name: "obs.stage_inject_landing_us", unit: "us"},
	{name: "obs.stage_landing_complete_us", unit: "us"},
	{name: "obs.reconcile_ratio", unit: "ratio"},
	{name: "obs.traced_overhead_pct", unit: "%"},
	{name: "task.spawn_local_us", unit: "us"},
	{name: "task.finish_empty_ms", unit: "ms"},
	{name: "task.steal_drain_ms", unit: "ms"},
	{name: "dht.find_lat_us", unit: "us"},
	{name: "dht.insert_pipelined_kops", unit: "kops/s", higher: true},
	{name: "dht.batch_insert_kops", unit: "kops/s", higher: true},
	{name: "dht.serial_baseline_kops", unit: "kops/s", higher: true},
	{name: "sparse.eadd_ms", unit: "ms"},
	{name: "sparse.chol_v1_ms", unit: "ms"},
	{name: "mpi.put_flush_lat_us", unit: "us"},
	{name: "proc.cpu_us_per_op", unit: "us"},
	{name: "proc.rss_mb", unit: "MB"},
	{name: "proc.gc_cycles", unit: "count"},
	{name: "fail_ratio", unit: "ratio"},
}

func declared(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// unitOf maps every declared metric to its unit.
var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()
