//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` repeats them for the driver; a self-test
//! keeps the two in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `after` is than `before`, as a share of `before`
    /// (negative when it is better).
    pub fn worsening(self, before: f64, after: f64) -> f64 {
        if before == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (after - before) / before,
            Better::Higher => (before - after) / before,
        }
    }
}

/// A metric a user of the gateway would see, with the share of the
/// baseline's median by which it may worsen before it is a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer (layer = module), measured in the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that must repeat exactly between two runs of one commit
    /// with one seed.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn share(name: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit: "ratio",
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

pub const PER_LAYER: [PerLayer; 58] = [
    // qce-strategy
    timing("strategy.enumerate.ns_per_candidate", "ns"),
    timing("strategy.estimate.ns_per_call", "ns"),
    share("strategy.estimate.memo_hit_share", Better::Higher),
    timing("strategy.generate.exhaustive_m5_ms", "ms"),
    timing("strategy.generate.exhaustive_m6_ms", "ms"),
    exact(
        "strategy.generate.candidates_evaluated",
        "count",
        Better::Lower,
    ),
    share("strategy.generate.pruned_share", Better::Higher),
    timing("strategy.generate.beam4_m8_ms", "ms"),
    timing("strategy.generate.greedy_m10_ms", "ms"),
    timing("strategy.plan_cache.hit_ns", "ns"),
    share("strategy.plan_cache.hit_share", Better::Higher),
    // runtime.generator
    timing("runtime.generator.plan_slot_hit_ns", "ns"),
    timing("runtime.generator.plan_slot_miss_ms", "ms"),
    exact("runtime.generator.replans", "count", Better::Lower),
    share("runtime.generator.synthesis_share", Better::Lower),
    // runtime.engine
    timing("runtime.engine.execute_seq3_ns", "ns"),
    timing("runtime.engine.execute_par3_ns", "ns"),
    exact("runtime.engine.frames_per_request", "count", Better::Lower),
    exact("runtime.engine.frames_peak", "count", Better::Lower),
    share("runtime.engine.loops2_ratio", Better::Higher),
    timing("runtime.engine.opaque_leg_us", "us"),
    // runtime.clock
    timing("runtime.clock.virtual_sleep_ns", "ns"),
    timing("runtime.clock.virtual_now_ns", "ns"),
    timing("runtime.clock.wall_now_ns", "ns"),
    timing("runtime.clock.wall_timer_overshoot_us", "us"),
    // runtime.telemetry / collector / registry / market
    timing("runtime.telemetry.record_request_ns", "ns"),
    timing("runtime.telemetry.snapshot_ms", "ms"),
    PerLayer {
        name: "runtime.telemetry.events_dropped",
        unit: "count",
        better: Better::Lower,
        exact: false,
    },
    timing("runtime.collector.record_ns", "ns"),
    timing("runtime.collector.qos_or_prior_ns", "ns"),
    timing("runtime.registry.best_provider_ns", "ns"),
    timing("runtime.market.ttl_hit_ns", "ns"),
    exact("runtime.market.fetches", "count", Better::Lower),
    // runtime.fleet
    timing("runtime.fleet.route_ns", "ns"),
    share("runtime.fleet.remote_plan_hit_share", Better::Higher),
    exact("runtime.fleet.shard_imbalance", "ratio", Better::Lower),
    share("runtime.fleet.shards1_ratio", Better::Lower),
    // runtime.gateway (client-side spans)
    timing("runtime.gateway.submit_to_first_leaf_ns", "ns"),
    timing("runtime.gateway.last_leaf_to_return_ns", "ns"),
    timing("runtime.gateway.self_ns", "ns"),
    timing("runtime.gateway.submit_async_call_ns", "ns"),
    timing("runtime.gateway.wait_blocked_ns", "ns"),
    exact(
        "runtime.gateway.admission_queue_peak",
        "count",
        Better::Lower,
    ),
    timing("runtime.gateway.queue_wait_virtual_ms_critical_p99", "ms"),
    timing("runtime.gateway.queue_wait_virtual_ms_scavenger_p50", "ms"),
    exact("runtime.gateway.shed", "count", Better::Lower),
    exact("runtime.gateway.deadline_exceeded", "count", Better::Lower),
    // process
    timing("process.cpu_us_per_request", "us"),
    share("process.cpu_sys_share", Better::Lower),
    PerLayer {
        name: "process.ctx_switches_per_request",
        unit: "count",
        better: Better::Lower,
        exact: false,
    },
    PerLayer {
        name: "process.threads_peak",
        unit: "count",
        better: Better::Lower,
        exact: false,
    },
    share("trace.overhead_share", Better::Lower),
    PerLayer {
        name: "trace.spans_dropped",
        unit: "count",
        better: Better::Lower,
        exact: false,
    },
    // client: what the generator itself sees, kept beside the layers
    share("client.qos_satisfied_share", Better::Higher),
    share("client.failed_share", Better::Lower),
    timing("client.latency_p99_us", "us"),
    PerLayer {
        name: "client.untraced_throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        exact: false,
    },
    PerLayer {
        name: "client.traced_throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        exact: false,
    },
];

/// True when `name` is made of the characters a metric or workload name
/// may use.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
