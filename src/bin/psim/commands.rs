//! The declarative command table: one row per subcommand, one row per
//! flag. The parser, the `--help` text, and the flag validation in
//! `main.rs` all derive from [`COMMANDS`], so a flag cannot exist
//! without documentation or vice versa.

/// One `--flag` a subcommand accepts.
pub(crate) struct FlagDef {
    pub(crate) name: &'static str,
    /// `true`: the flag consumes the next argument; `false`: boolean switch.
    pub(crate) takes_value: bool,
    /// Default inserted before parsing (`None` = absent unless given).
    pub(crate) default: Option<&'static str>,
    pub(crate) help: &'static str,
}

/// One subcommand.
pub(crate) struct CommandDef {
    pub(crate) name: &'static str,
    /// Placeholder for the positional argument, if the command takes one.
    pub(crate) positional: Option<&'static str>,
    pub(crate) flags: &'static [FlagDef],
    pub(crate) help: &'static str,
}

pub(crate) const SEED: FlagDef = FlagDef {
    name: "seed",
    takes_value: true,
    default: Some("1"),
    help: "RNG seed",
};
pub(crate) const QUICK: FlagDef = FlagDef {
    name: "quick",
    takes_value: false,
    default: None,
    help: "fewer repetitions (smoke settings)",
};
pub(crate) const STRICT: FlagDef = FlagDef {
    name: "strict",
    takes_value: false,
    default: None,
    help: "exit 3 when the trace ring dropped events",
};
pub(crate) const SHARDS: FlagDef = FlagDef {
    name: "shards",
    takes_value: true,
    default: Some("1"),
    help: "shard domains for the parallel engine (1 = serial)",
};
pub(crate) const SHARD_WORKERS: FlagDef = FlagDef {
    name: "shard-workers",
    takes_value: true,
    default: Some("1"),
    help: "threads for a sharded run (never changes the numbers)",
};

/// `--model` choices shown in the flag help. The canonical table is
/// `ModelKind::ALL` (resolved through `peer_selection::service`); the
/// round-trip test below keeps this string in lock step with it, so the
/// CLI cannot drift from what actually parses.
pub(crate) const MODEL_FLAG_CHOICES: &str =
    "economic|same-priority|quick-peer|random|ucb1|eps-greedy (alias: evaluator; default: blind)";

pub(crate) static COMMANDS: &[CommandDef] = &[
    CommandDef {
        name: "table1",
        positional: None,
        flags: &[],
        help: "print the slice roster and calibrated testbed",
    },
    CommandDef {
        name: "fig",
        positional: Some("<2|3|4|5|6|7|all>"),
        flags: &[QUICK],
        help: "reproduce a figure (default: all)",
    },
    CommandDef {
        name: "extensions",
        positional: None,
        flags: &[QUICK],
        help: "run the future-work studies",
    },
    CommandDef {
        name: "ablation",
        positional: None,
        flags: &[QUICK],
        help: "transport-model ablation table",
    },
    CommandDef {
        name: "transfer",
        positional: None,
        flags: &[
            FlagDef {
                name: "size-mb",
                takes_value: true,
                default: Some("10"),
                help: "file size in MB",
            },
            FlagDef {
                name: "parts",
                takes_value: true,
                default: Some("10"),
                help: "number of file parts",
            },
            SEED,
            FlagDef {
                name: "model",
                takes_value: true,
                default: None,
                help: MODEL_FLAG_CHOICES,
            },
        ],
        help: "run one file distribution",
    },
    CommandDef {
        name: "task",
        positional: None,
        flags: &[
            FlagDef {
                name: "work",
                takes_value: true,
                default: Some("120"),
                help: "task size in Gops",
            },
            FlagDef {
                name: "input-mb",
                takes_value: true,
                default: Some("0"),
                help: "task input size in MB",
            },
            SEED,
            FlagDef {
                name: "model",
                takes_value: true,
                default: None,
                help: MODEL_FLAG_CHOICES,
            },
        ],
        help: "run one task campaign",
    },
    CommandDef {
        name: "sweep",
        positional: Some("<grid>"),
        flags: &[
            FlagDef {
                name: "workers",
                takes_value: true,
                default: Some("0"),
                help: "worker threads; 0 = auto (never changes the numbers)",
            },
            SEED,
            QUICK,
            FlagDef {
                name: "csv",
                takes_value: true,
                default: None,
                help: "also write the CSV to FILE",
            },
            FlagDef {
                name: "json",
                takes_value: true,
                default: None,
                help: "write the campaign JSON to FILE",
            },
            FlagDef {
                name: "prom",
                takes_value: true,
                default: None,
                help: "write cell-tagged metrics exposition to FILE",
            },
        ],
        help: "run a named grid campaign (`grids:` below); CSV on stdout",
    },
    CommandDef {
        name: "csv",
        positional: None,
        flags: &[
            FlagDef {
                name: "out",
                takes_value: true,
                default: Some("target/figures"),
                help: "output directory",
            },
            QUICK,
        ],
        help: "write every figure's series as CSV",
    },
    CommandDef {
        name: "churn",
        positional: None,
        flags: &[
            FlagDef {
                name: "regions",
                takes_value: true,
                default: Some("8"),
                help: "synthetic regions (one broker each)",
            },
            FlagDef {
                name: "peers",
                takes_value: true,
                default: Some("1000"),
                help: "lifecycle peers across all regions",
            },
            FlagDef {
                name: "horizon-secs",
                takes_value: true,
                default: Some("1800"),
                help: "virtual-time horizon in seconds",
            },
            FlagDef {
                name: "num-shards",
                takes_value: true,
                default: Some("4"),
                help: "shard domains (fixed across worker counts)",
            },
            SEED,
            SHARD_WORKERS,
        ],
        help: "churn run on a synthetic testbed -> trace JSONL + metrics + summary",
    },
    CommandDef {
        name: "profile",
        positional: Some("<churn|scenario>"),
        flags: &[
            FlagDef {
                name: "regions",
                takes_value: true,
                default: Some("8"),
                help: "synthetic regions for the churn workload",
            },
            FlagDef {
                name: "peers",
                takes_value: true,
                default: Some("20000"),
                help: "lifecycle peers for the churn workload",
            },
            FlagDef {
                name: "horizon-secs",
                takes_value: true,
                default: Some("1800"),
                help: "virtual-time horizon in seconds",
            },
            FlagDef {
                name: "num-shards",
                takes_value: true,
                default: Some("4"),
                help: "shard domains for the churn workload",
            },
            FlagDef {
                name: "interval-secs",
                takes_value: true,
                default: Some("60"),
                help: "time-series sampling interval (virtual seconds)",
            },
            FlagDef {
                name: "series-csv",
                takes_value: true,
                default: None,
                help: "also write the series CSV to FILE",
            },
            FlagDef {
                name: "chrome-trace",
                takes_value: true,
                default: None,
                help: "write a Chrome trace_event JSON of the barrier rounds to FILE",
            },
            FlagDef {
                name: "out",
                takes_value: true,
                default: None,
                help: "write the wall-clock summary JSON to FILE",
            },
            SEED,
            SHARDS,
            SHARD_WORKERS,
        ],
        help: "telemetry run -> series CSV + Prometheus exposition on stdout",
    },
    CommandDef {
        name: "trace",
        positional: Some("<scenario>"),
        flags: &[
            SEED,
            FlagDef {
                name: "out",
                takes_value: true,
                default: None,
                help: "output file (default: stdout)",
            },
            STRICT,
            SHARDS,
            SHARD_WORKERS,
        ],
        help: "run a traced scenario, emit JSONL events",
    },
    CommandDef {
        name: "report",
        positional: Some("<scenario>"),
        flags: &[SEED, STRICT, SHARDS, SHARD_WORKERS],
        help: "traced run -> metrics snapshot + transfer timelines",
    },
    CommandDef {
        name: "attribute",
        positional: Some("<scenario>"),
        flags: &[
            SEED,
            FlagDef {
                name: "csv",
                takes_value: true,
                default: None,
                help: "write the phase table CSV to FILE",
            },
            FlagDef {
                name: "prom",
                takes_value: true,
                default: None,
                help: "write metrics exposition to FILE",
            },
            STRICT,
            SHARDS,
            SHARD_WORKERS,
        ],
        help: "traced run -> per-peer latency phase breakdown",
    },
    CommandDef {
        name: "multiregion",
        positional: None,
        flags: &[
            FlagDef {
                name: "regions",
                takes_value: true,
                default: Some("3"),
                help: "regions (one shard and one broker each)",
            },
            FlagDef {
                name: "clients",
                takes_value: true,
                default: Some("3"),
                help: "clients per region",
            },
            SEED,
            SHARD_WORKERS,
        ],
        help: "traced multi-region run -> JSONL + metrics + phase CSV",
    },
    CommandDef {
        name: "federate",
        positional: None,
        flags: &[
            FlagDef {
                name: "brokers",
                takes_value: true,
                default: Some("4"),
                help: "brokers (one region, one shard each)",
            },
            FlagDef {
                name: "peers",
                takes_value: true,
                default: Some("200"),
                help: "peers across the federation",
            },
            FlagDef {
                name: "homing",
                takes_value: true,
                default: Some("region"),
                help: "client->broker homing: region|hash",
            },
            FlagDef {
                name: "gossip-ms",
                takes_value: true,
                default: Some("30000"),
                help: "broker roster gossip interval",
            },
            FlagDef {
                name: "staleness-ms",
                takes_value: true,
                default: None,
                help: "gossiped-view tolerance (default: 3x gossip)",
            },
            FlagDef {
                name: "forward-hops",
                takes_value: true,
                default: Some("2"),
                help: "petition forwarding hop budget (0 = off)",
            },
            FlagDef {
                name: "kill-broker-at",
                takes_value: true,
                default: None,
                help: "crash a broker at this virtual second",
            },
            FlagDef {
                name: "restart-broker-at",
                takes_value: true,
                default: None,
                help: "restart the killed broker at this virtual second",
            },
            FlagDef {
                name: "kill-region",
                takes_value: true,
                default: Some("0"),
                help: "which broker --kill-broker-at crashes",
            },
            FlagDef {
                name: "horizon-secs",
                takes_value: true,
                default: Some("900"),
                help: "virtual run length",
            },
            FlagDef {
                name: "num-shards",
                takes_value: true,
                default: Some("4"),
                help: "shard domains (at most --brokers)",
            },
            SEED,
            SHARD_WORKERS,
        ],
        help: "federated run -> JSONL + metrics + summary (worker-invariant)",
    },
    CommandDef {
        name: "stream",
        positional: None,
        flags: &[
            FlagDef {
                name: "regions",
                takes_value: true,
                default: Some("4"),
                help: "regions (one broker and one shard each)",
            },
            FlagDef {
                name: "peers",
                takes_value: true,
                default: Some("32"),
                help: "streaming viewers across all regions",
            },
            FlagDef {
                name: "policy",
                takes_value: true,
                default: Some("sequential"),
                help: "piece selection: sequential|windowed|rarest-window",
            },
            FlagDef {
                name: "window",
                takes_value: true,
                default: Some("8"),
                help: "request-window width (sequential pins it to 1)",
            },
            FlagDef {
                name: "upload",
                takes_value: true,
                default: Some("home"),
                help: "peer uplink distribution: home|mixed|campus",
            },
            FlagDef {
                name: "pieces",
                takes_value: true,
                default: Some("48"),
                help: "pieces the stream is divided into",
            },
            FlagDef {
                name: "horizon-secs",
                takes_value: true,
                default: Some("900"),
                help: "virtual run length",
            },
            FlagDef {
                name: "num-shards",
                takes_value: true,
                default: Some("4"),
                help: "shard domains (at most --regions)",
            },
            SEED,
            SHARD_WORKERS,
        ],
        help: "streaming run -> JSONL + metrics + summary (worker-invariant)",
    },
];
