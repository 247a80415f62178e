//! Regenerate every quantitative claim in the paper.
//!
//! ```text
//! experiments [--quick] [e1 e5 e6 ...]
//! ```
//!
//! With no experiment ids, runs everything; `--quick` shrinks the
//! workloads (used by CI). The E1–E17 tables of `EXPERIMENTS.md` come
//! from this output; the file itself is edited by hand.

use std::time::Duration;

use bench::{
    e10_icebox, e11_scale, e12_slurm, e13_control, e14_chaos, e15_federation, e16_ingest,
    e17_query, e1_gathering, e5_boot, e6_cloning, e7_pipeline, e8_compress, e9_events,
};
use cwx_bios::Firmware;

struct Opts {
    quick: bool,
    which: Vec<String>,
}

fn parse_args() -> Opts {
    let mut o = Opts {
        quick: false,
        which: Vec::new(),
    };
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--quick" => o.quick = true,
            flag if flag.starts_with("--") => {
                eprintln!("experiments: unknown flag {flag}");
                std::process::exit(2);
            }
            other => o.which.push(other.to_string()),
        }
    }
    o
}

fn want(o: &Opts, id: &str) -> bool {
    o.which.is_empty() || o.which.iter().any(|w| w == id)
}

fn heading(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

fn table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    for r in rows {
        line(r);
    }
}

fn note(text: &str) {
    println!("  -- {text}");
}

fn f(x: f64) -> String {
    if x >= 1000.0 {
        format!("{:.0}", x)
    } else if x >= 10.0 {
        format!("{:.1}", x)
    } else {
        format!("{:.2}", x)
    }
}

fn main() {
    // E16/E17 re-exec this binary for their server/driver subprocesses
    e16_ingest::subprocess_main();
    e17_query::subprocess_main();
    let o = parse_args();
    let win = if o.quick {
        Duration::from_millis(80)
    } else {
        Duration::from_millis(700)
    };

    // ---------------- E1 ----------------
    if want(&o, "e1") {
        heading(
            "E1",
            "/proc/meminfo gathering optimization ladder (paper §5.3.1)",
        );
        let mut rows = Vec::new();
        if let Some(real) = e1_gathering::real_proc() {
            for r in e1_gathering::ladder(&real, win) {
                rows.push(vec![
                    format!("real /proc, {}", r.level.label()),
                    f(r.paper_samples_per_sec),
                    f(r.samples_per_sec),
                    format!("{:.1}x", r.samples_per_sec / r.paper_samples_per_sec),
                ]);
            }
        }
        for r in e1_gathering::ladder(&e1_gathering::synthetic_proc(), win) {
            rows.push(vec![
                format!("synthetic, {}", r.level.label()),
                f(r.paper_samples_per_sec),
                f(r.samples_per_sec),
                format!("{:.1}x", r.samples_per_sec / r.paper_samples_per_sec),
            ]);
        }
        rows.push(vec![
            "rstatd RPC baseline (loopback UDP)".to_string(),
            "\"slow and inefficient\"".to_string(),
            f(e1_gathering::rstatd_baseline(win)),
            "-".to_string(),
        ]);
        table(
            &[
                "configuration",
                "paper samples/s (2002 PIII)",
                "measured samples/s",
                "vs paper",
            ],
            &rows,
        );
        note("Shape target: each step is a large multiplicative win, keep-open is the fastest, and the rstatd-style RPC baseline trails badly (and carries only ~21 statistics); absolute rates are ~100x the 2002 hardware.");
    }

    // ---------------- E2 / E3 ----------------
    if want(&o, "e2") {
        heading(
            "E2",
            "per-file cost of the optimized gatherer (paper §5.3.1)",
        );
        let mut rows = Vec::new();
        let src_label: Vec<(String, Vec<e1_gathering::PerFileRow>)> = {
            let mut v = Vec::new();
            if let Some(real) = e1_gathering::real_proc() {
                v.push((
                    "real /proc".to_string(),
                    e1_gathering::per_file_costs(&real, win),
                ));
            }
            v.push((
                "synthetic".to_string(),
                e1_gathering::per_file_costs(&e1_gathering::synthetic_proc(), win),
            ));
            v
        };
        for (label, costs) in &src_label {
            for r in costs {
                rows.push(vec![
                    format!("{label}: {}", r.file),
                    format!("{:.1}", r.paper_micros),
                    format!("{:.2}", r.micros),
                ]);
            }
        }
        table(&["file", "paper us/call", "measured us/call"], &rows);
    }

    if want(&o, "e3") {
        heading(
            "E3",
            "agent CPU budget at 50 samples/s (paper: ~5 s CPU per hour)",
        );
        let mut rows = vec![vec!["paper (29.5 us/call)".to_string(), "5.31".to_string()]];
        if let Some(real) = e1_gathering::real_proc() {
            let costs = e1_gathering::per_file_costs(&real, win);
            let mem = costs.iter().find(|c| c.file == "meminfo").unwrap();
            rows.push(vec![
                format!("measured ({:.2} us/call)", mem.micros),
                format!("{:.2}", e1_gathering::cpu_secs_per_hour(mem.micros, 50.0)),
            ]);
        }
        table(
            &["configuration", "CPU seconds per hour @ 50 samples/s"],
            &rows,
        );
    }

    // ---------------- E4 ----------------
    if want(&o, "e4") {
        heading(
            "E4",
            "optimized vs idiomatic implementation (paper: C 'only slightly ahead' of Java)",
        );
        let mut rows = Vec::new();
        if let Some(real) = e1_gathering::real_proc() {
            let c = e1_gathering::impl_comparison(&real, win);
            rows.push(vec![
                "real /proc".to_string(),
                f(c.optimized_per_sec),
                f(c.idiomatic_per_sec),
                format!("{:.2}x", c.ratio()),
            ]);
        }
        let c = e1_gathering::impl_comparison(&e1_gathering::synthetic_proc(), win);
        rows.push(vec![
            "synthetic".to_string(),
            f(c.optimized_per_sec),
            f(c.idiomatic_per_sec),
            format!("{:.2}x", c.ratio()),
        ]);
        table(
            &[
                "source",
                "zero-alloc samples/s",
                "idiomatic samples/s",
                "speedup",
            ],
            &rows,
        );
        note("Shape target: the optimized implementation wins but stays within the same order of magnitude, matching the paper's C-vs-Java finding.");
    }

    // ---------------- E5 ----------------
    if want(&o, "e5") {
        heading("E5", "LinuxBIOS ~3 s vs commercial BIOS 30-60 s (paper §2)");
        let sizes: &[u32] = if o.quick {
            &[1, 10, 100]
        } else {
            &[1, 10, 100, 1000]
        };
        let mut rows = Vec::new();
        for &n in sizes {
            for fw in [Firmware::LinuxBios, Firmware::LegacyBios] {
                let r = e5_boot::boot_storm(1, n, fw);
                rows.push(vec![
                    format!("{n} node(s), {:?}", fw),
                    if fw == Firmware::LinuxBios {
                        "~3".into()
                    } else {
                        "30-60".into()
                    },
                    format!(
                        "{:.1} (sd {:.1})",
                        r.firmware_secs.mean, r.firmware_secs.std_dev
                    ),
                    format!("{:.1}", r.last_kernel_secs),
                    format!("{:.1}", r.last_up_secs),
                ]);
            }
        }
        table(
            &[
                "storm",
                "paper firmware s",
                "measured firmware s/node",
                "last node at kernel s",
                "last node fully up s",
            ],
            &rows,
        );
    }

    // ---------------- E6 ----------------
    if want(&o, "e6") {
        heading(
            "E6",
            "clone + reboot 400 nodes over one fast Ethernet (paper §4: ~12 min)",
        );
        if !o.quick {
            let r = e6_cloning::headline(1, 0.001);
            table(
                &["metric", "paper", "measured"],
                &[
                    vec![
                        "400-node clone+reboot".into(),
                        "~12 min".into(),
                        format!("{:.1} min", r.makespan_secs / 60.0),
                    ],
                    vec![
                        "stream time".into(),
                        "-".into(),
                        format!("{:.1} min", r.stream_secs / 60.0),
                    ],
                    vec![
                        "repair chunks".into(),
                        "-".into(),
                        r.repair_chunks.to_string(),
                    ],
                    vec![
                        "failed nodes".into(),
                        "0".into(),
                        r.failed_nodes.to_string(),
                    ],
                ],
            );
        }
        let image = if o.quick { 32u64 << 20 } else { 256 << 20 };
        let counts: &[u32] = if o.quick {
            &[5, 20]
        } else {
            &[10, 25, 50, 100, 200, 400]
        };
        let pts = e6_cloning::node_sweep(2, image, 0.005, counts);
        let mut rows = Vec::new();
        for p in &pts {
            rows.push(vec![
                p.n_nodes.to_string(),
                format!("{:.1}", p.multicast.makespan_secs / 60.0),
                format!("{:.1}", p.unicast.makespan_secs / 60.0),
                format!("{:.2}", p.multicast.wire_bytes as f64 / 1e9),
                format!("{:.2}", p.unicast.wire_bytes as f64 / 1e9),
            ]);
        }
        table(
            &[
                "nodes",
                "multicast min",
                "unicast min",
                "multicast wire GB",
                "unicast wire GB",
            ],
            &rows,
        );
        note(&format!("Node-count sweep at {} MiB image, 0.5% chunk loss. Shape target: multicast flat in N, unicast linear in N.", image >> 20));

        let losses: &[f64] = if o.quick {
            &[0.0, 0.02]
        } else {
            &[0.0, 0.005, 0.01, 0.02, 0.05]
        };
        let rows: Vec<Vec<String>> =
            e6_cloning::loss_sweep(3, 50.min(counts[counts.len() - 1]), image, losses)
                .into_iter()
                .map(|(loss, r)| {
                    vec![
                        format!("{:.1}%", loss * 100.0),
                        format!("{:.1}", r.makespan_secs / 60.0),
                        r.repair_chunks.to_string(),
                        r.failed_nodes.to_string(),
                    ]
                })
                .collect();
        table(
            &[
                "chunk loss",
                "makespan min",
                "repair chunks",
                "failed nodes",
            ],
            &rows,
        );

        let rows: Vec<Vec<String>> = e6_cloning::chunk_sweep(5, 30, image, 0.02)
            .into_iter()
            .map(|(chunk, r)| {
                vec![
                    format!("{} KiB", chunk >> 10),
                    format!("{:.1}", r.makespan_secs / 60.0),
                    r.repair_chunks.to_string(),
                    format!("{:.2}", r.wire_bytes as f64 / 1e9),
                ]
            })
            .collect();
        table(
            &["chunk size", "makespan min", "repair chunks", "wire GB"],
            &rows,
        );

        let rows: Vec<Vec<String>> = e6_cloning::repair_ablation(4, 50, image, 0.02)
            .into_iter()
            .map(|(label, r)| {
                vec![
                    label.to_string(),
                    format!("{:.1}", r.makespan_secs / 60.0),
                    r.repair_chunks.to_string(),
                    r.remulticast_chunks.to_string(),
                ]
            })
            .collect();
        table(
            &[
                "repair strategy",
                "makespan min",
                "unicast repairs",
                "re-multicast chunks",
            ],
            &rows,
        );
    }

    // ---------------- E7 ----------------
    if want(&o, "e7") {
        heading(
            "E7",
            "consolidation + compression ablation (paper §5.3.2-3)",
        );
        let ticks = if o.quick { 30 } else { 200 };
        let rows: Vec<Vec<String>> = e7_pipeline::ablation(ticks)
            .into_iter()
            .map(|r| {
                vec![
                    r.label.to_string(),
                    format!("{:.0}", r.bytes_per_tick),
                    format!("{:.1}", r.values_per_tick),
                ]
            })
            .collect();
        table(&["configuration", "wire bytes/tick", "values/tick"], &rows);
        note("Paper claim: consolidation 'reduces the amount of transferred data substantially'; compression is 'very effective on text input'.");
    }

    // ---------------- E8 ----------------
    if want(&o, "e8") {
        heading("E8", "text compression effectiveness (paper §5.3.3)");
        let rows: Vec<Vec<String>> = e8_compress::corpora()
            .into_iter()
            .map(|r| {
                vec![
                    r.corpus.to_string(),
                    r.input_bytes.to_string(),
                    r.output_bytes.to_string(),
                    format!("{:.1}x", 1.0 / r.ratio),
                ]
            })
            .collect();
        table(&["corpus", "input B", "compressed B", "reduction"], &rows);
    }

    // ---------------- E9 ----------------
    if want(&o, "e9") {
        heading(
            "E9",
            "event engine: fan failure -> power-down before burn (paper §5.2)",
        );
        let (n, fails) = if o.quick { (16, 3) } else { (50, 10) };
        let c = e9_events::fan_campaign(5, n, fails, false);
        let lat = c.action_latency.as_ref();
        table(
            &["metric", "value"],
            &[
                vec![
                    "nodes / fan failures".into(),
                    format!("{} / {}", c.n_nodes, c.failures),
                ],
                vec![
                    "power-down actions executed".into(),
                    c.power_downs.to_string(),
                ],
                vec![
                    "action latency s (mean / p95 / max)".into(),
                    lat.map(|l| format!("{:.1} / {:.1} / {:.1}", l.mean, l.p95, l.max))
                        .unwrap_or_else(|| "-".into()),
                ],
                vec!["CPUs burned (with engine)".into(), c.burned.to_string()],
                vec![
                    "CPUs burned (engine disabled)".into(),
                    c.burned_without_engine.to_string(),
                ],
                vec!["emails sent".into(), c.emails.to_string()],
                vec![
                    "firings folded into episodes".into(),
                    c.suppressed.to_string(),
                ],
            ],
        );
        if !o.quick {
            let rows: Vec<Vec<String>> = e9_events::mixed_drill(9, 16)
                .into_iter()
                .map(|r| {
                    vec![
                        r.fault.to_string(),
                        r.action.unwrap_or_else(|| "-".into()),
                        if r.recovered {
                            "back up".into()
                        } else {
                            "down (contained)".into()
                        },
                        r.hardware_safe.to_string(),
                    ]
                })
                .collect();
            table(
                &[
                    "fault injected",
                    "automatic action",
                    "final state",
                    "hardware safe",
                ],
                &rows,
            );
        }
        if !o.quick {
            let rows: Vec<Vec<String>> = e9_events::latency_scaling(6, &[20, 100, 300])
                .into_iter()
                .map(|(n, c)| {
                    let l = c.action_latency.unwrap();
                    vec![
                        n.to_string(),
                        c.failures.to_string(),
                        format!("{:.1}", l.mean),
                        format!("{:.1}", l.max),
                        c.burned.to_string(),
                    ]
                })
                .collect();
            table(
                &[
                    "nodes",
                    "failures",
                    "mean latency s",
                    "max latency s",
                    "burned",
                ],
                &rows,
            );
        }
    }

    // ---------------- E10 ----------------
    if want(&o, "e10") {
        heading(
            "E10",
            "ICE Box: power sequencing and 16 KiB console post-mortem (paper §3)",
        );
        let s = e10_icebox::sequencing();
        table(
            &["metric", "value"],
            &[
                vec![
                    "inlet capacity W (15A @ 110V)".into(),
                    format!("{:.0}", s.inlet_capacity_watts),
                ],
                vec![
                    "peak inrush W, sequencing OFF".into(),
                    format!("{:.0}", s.unsequenced_peak_watts),
                ],
                vec![
                    "peak inrush W, sequencing ON".into(),
                    format!("{:.0}", s.sequenced_peak_watts),
                ],
            ],
        );
        let p = e10_icebox::post_mortem();
        table(
            &["metric", "value"],
            &[
                vec![
                    "console bytes emitted by crashing node".into(),
                    p.emitted_bytes.to_string(),
                ],
                vec![
                    "bytes retained (<=16 KiB)".into(),
                    p.retained_bytes.to_string(),
                ],
                vec![
                    "panic trace visible post-mortem".into(),
                    p.panic_visible.to_string(),
                ],
                vec![
                    "early boot chatter evicted".into(),
                    p.boot_chatter_evicted.to_string(),
                ],
            ],
        );
    }

    // ---------------- E11 ----------------
    if want(&o, "e11") {
        heading("E11", "monitoring load vs cluster size (paper §5.3, §7)");
        let sizes: &[u32] = if o.quick {
            &[10, 50]
        } else {
            &[10, 50, 100, 250, 500, 1000, 2500, 5000, 10000]
        };
        let secs = if o.quick { 120 } else { 600 };
        let rows: Vec<Vec<String>> = e11_scale::sweep(3, sizes, secs)
            .into_iter()
            .map(|r| {
                vec![
                    r.n_nodes.to_string(),
                    format!("{:.1}", r.reports_per_sec),
                    format!("{:.0}", r.wire_bytes_per_sec),
                    format!("{:.1}", r.bytes_per_node_per_sec),
                    format!("{:.4}%", r.segment_fraction * 100.0),
                    format!("{:.0}", r.values_per_sec),
                    format!("{:.1}", r.wall_secs),
                    format!("{:.0}", r.events_per_sec),
                ]
            })
            .collect();
        table(
            &[
                "nodes",
                "reports/s",
                "wire B/s",
                "B/s per node",
                "% of fast Ethernet",
                "server values/s",
                "wall s",
                "events/s (wall)",
            ],
            &rows,
        );
        let with = e11_scale::monitor_load(4, 50, if o.quick { 120 } else { 300 }, true);
        let without = e11_scale::monitor_load(4, 50, if o.quick { 120 } else { 300 }, false);
        table(
            &["consolidation", "B/s per node"],
            &[
                vec![
                    "delta on (product)".into(),
                    format!("{:.1}", with.bytes_per_node_per_sec),
                ],
                vec![
                    "delta off (ablation)".into(),
                    format!("{:.1}", without.bytes_per_node_per_sec),
                ],
            ],
        );
    }

    // ---------------- E12 ----------------
    if want(&o, "e12") {
        heading("E12", "SLURM-lite scheduling and failover (paper §6)");
        let (nodes, jobs) = if o.quick { (32, 150) } else { (64, 1000) };
        let rows: Vec<Vec<String>> = e12_slurm::policy_comparison(11, nodes, jobs)
            .into_iter()
            .map(|r| {
                vec![
                    r.policy.to_string(),
                    format!("{:.1}", r.makespan_secs / 3600.0),
                    format!("{:.0}", r.mean_wait_secs),
                    format!("{:.1}%", r.utilization * 100.0),
                    r.backfilled.to_string(),
                    r.completed.to_string(),
                ]
            })
            .collect();
        table(
            &[
                "policy",
                "makespan h",
                "mean wait s",
                "utilization",
                "backfilled",
                "finished",
            ],
            &rows,
        );
        let fo = e12_slurm::failover(13, nodes, jobs.min(400));
        table(
            &["failover metric", "value"],
            &[
                vec!["jobs".into(), fo.jobs.to_string()],
                vec![
                    "completed by mid-run replica".into(),
                    fo.completed_replica.to_string(),
                ],
                vec![
                    "replica identical to uninterrupted run".into(),
                    fo.identical.to_string(),
                ],
            ],
        );
    }

    // ---------------- E13 ----------------
    if want(&o, "e13") {
        heading("E13", "control-plane command bus under chassis loss");
        let (nodes, fails) = if o.quick { (16, 4) } else { (64, 12) };
        let rows: Vec<Vec<String>> = e13_control::loss_sweep(5, nodes, fails, &[0.0, 0.01, 0.10])
            .into_iter()
            .map(|r| {
                let lat = r
                    .completion_latency
                    .map(|l| format!("{:.1} / {:.1}", l.mean, l.max))
                    .unwrap_or_else(|| "-".into());
                vec![
                    format!("{:.0}%", r.loss * 100.0),
                    r.commands_fired.to_string(),
                    r.completed.to_string(),
                    r.failed.to_string(),
                    r.retries.to_string(),
                    lat,
                    r.silent_drops.to_string(),
                ]
            })
            .collect();
        table(
            &[
                "cmd loss",
                "fired",
                "completed",
                "failed",
                "retries",
                "event→done s (mean/max)",
                "silent drops",
            ],
            &rows,
        );
    }

    // ---------------- E14 ----------------
    if want(&o, "e14") {
        heading("E14", "resilience under deterministic chaos campaigns");
        note(
            "Three canned multi-layer fault campaigns (`examples/scenarios/`) run \
             under fixed seeds with the invariant checker alongside; each is run \
             twice to confirm the audit trail replays byte-identically.",
        );
        let rows: Vec<Vec<String>> = e14_chaos::all_canned()
            .into_iter()
            .map(|run| {
                let r = &run.report;
                let fmt_s = |x: f64| {
                    if x.is_finite() {
                        format!("{x:.1}")
                    } else {
                        "-".into()
                    }
                };
                let n_nodes = run.manifest.chaos().expect("a [cluster] scenario").n_nodes;
                vec![
                    run.manifest.name.clone(),
                    fmt_s(r.detection_latency_secs),
                    fmt_s(r.mttr_secs),
                    format!("{:.4}", r.availability),
                    format!("{}/{n_nodes}", r.final_up),
                    format!("{} (+{} storm-limited)", r.emails, r.storms),
                    r.violations.len().to_string(),
                    if run.reproducible { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect();
        table(
            &[
                "campaign",
                "detect s",
                "MTTR s",
                "avail",
                "final up",
                "emails",
                "violations",
                "reproducible",
            ],
            &rows,
        );
    }

    // ---------------- E15 ----------------
    if want(&o, "e15") {
        heading("E15", "federation scale: per-tier load up to 100k nodes");
        note(
            "A federation head aggregates N full sub-clusters over consolidated \
             CWB1 uplinks. Per-tier columns separate head load (frame ingest + \
             command fan-out) from sub-server load (the whole monitoring stack); \
             `census ok` asserts the head's lifecycle aggregate exactly matches \
             the summed ground truth.",
        );
        let shapes: &[(u16, u32)] = if o.quick {
            &[(3, 16), (4, 64)]
        } else {
            &e15_federation::SHAPES
        };
        let secs = if o.quick { 120 } else { 600 };
        let rows: Vec<Vec<String>> = e15_federation::sweep(7, shapes, secs)
            .into_iter()
            .map(|r| {
                vec![
                    format!("{}x{}", r.clusters, r.nodes_per),
                    r.total_nodes.to_string(),
                    format!("{:.3}", r.head_busy_secs),
                    format!("{:.1}", r.sub_busy_secs),
                    format!("{:.4}%", r.head_cpu_share * 100.0),
                    format!("{:.1}", r.head_frames_per_sec),
                    format!("{:.0}", r.uplink_bytes_per_sec),
                    format!("{:.0}", r.sub_events_per_wall_sec),
                    format!("{:.1}", r.wall_secs),
                    if r.aggregate_ok { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect();
        table(
            &[
                "shape",
                "nodes",
                "head CPU s",
                "sub CPU s",
                "head share",
                "head frames/s",
                "uplink B/s",
                "sub events/s (wall)",
                "wall s",
                "census ok",
            ],
            &rows,
        );
    }

    // ---------------- E16 ----------------
    if want(&o, "e16") {
        heading(
            "E16",
            "realtime ingest density: one reactor, thousands of connections",
        );
        note(
            "Live loopback TCP agents stream CWB1 frames at a fixed cadence into \
             one ingest server; each scale runs in a fresh subprocess so \
             CPU (utime+stime) and peak RSS are per-run, with the client driver in \
             a further subprocess so server and driver fd budgets do not share one \
             `RLIMIT_NOFILE`. Scales above the per-process fd headroom are clamped \
             (requested vs actual columns differ there). Latency is readiness-read \
             to store-visible, measured server-side. Density rows use a live-view \
             store (ring=1) so per-connection memory is the ingest architecture; \
             the ring=16 row shows the retained-sample cost on top.",
        );
        let scales: &[usize] = if o.quick {
            &[200, 1000]
        } else {
            &[1000, 10_000, 50_000]
        };
        let (frames, interval) = if o.quick {
            (5, Duration::from_millis(100))
        } else {
            (20, Duration::from_millis(1000))
        };
        let rows = e16_ingest::sweep(scales, frames, interval);
        let json = e16_ingest::to_json(&rows);
        let json_path = "e16_ingest.json";
        if std::fs::write(json_path, &json).is_ok() {
            println!("(machine-readable copy written to {json_path})");
        }
        let trows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                let conns_col = if r.conns == r.requested {
                    r.conns.to_string()
                } else {
                    format!("{} (req {})", r.conns, r.requested)
                };
                if !r.completed {
                    let mut row = vec![
                        conns_col,
                        r.retention.to_string(),
                        "did not complete".to_string(),
                    ];
                    row.extend((0..7).map(|_| "-".to_string()));
                    return row;
                }
                vec![
                    conns_col,
                    r.retention.to_string(),
                    r.ingested.to_string(),
                    format!("{:.1}", r.wall_secs),
                    format!("{:.2}", r.cpu_secs),
                    format!("{:.1}", r.rss_mib),
                    format!("{:.0}", r.conns_per_gib),
                    format!("{:.0}", r.p50_us),
                    format!("{:.0}", r.p99_us),
                    format!("{:.0}", r.max_us),
                    format!("{}/{}", r.evicted, r.backpressure),
                ]
            })
            .collect();
        table(
            &[
                "conns",
                "ring",
                "frames in",
                "wall s",
                "CPU s",
                "peak RSS MiB",
                "conns/GiB",
                "p50 us",
                "p99 us",
                "max us",
                "evict/bp",
            ],
            &trows,
        );
    }

    // ---------------- E17 ----------------
    if want(&o, "e17") {
        heading(
            "E17",
            "query engine: tiered serving, cold vs warm cache, dashboards vs ingest",
        );
        note(
            "Part A queries a populated, compacted store through the same \
             `Store::query` path the CLI and the `CWQ1` endpoint use. Tier \
             selection answers each window from the coarsest rollup that \
             nests in it; per-tier block-cache miss counters attribute every \
             decode, so `raw miss` = 0 on a tier-served row proves a 1h \
             window never decoded 10s-or-finer blocks (p99 must go raw — \
             percentiles do not compose from buckets — and pays for it). \
             Part B reruns the E16 topology (reactor server subprocess, \
             agent-driver subprocess) with N dashboard clients refreshing a \
             fleet-wide windowed average at 5 Hz over `CWQ1` while agents \
             stream; the dashboards=0 row is the no-query ingest baseline \
             the 2x p99 acceptance bound compares against.",
        );
        let (fleets, span, cadence): (&[u32], u64, u64) = if o.quick {
            (&[50], 2 * 3_600, 10)
        } else {
            (&[100, 1000], 24 * 3_600, 30)
        };
        let qrows = e17_query::query_sweep(fleets, span, cadence, o.quick);
        let trows: Vec<Vec<String>> = qrows
            .iter()
            .map(|r| {
                vec![
                    r.fleet.to_string(),
                    format!("{}h", r.range_secs / 3600),
                    r.window.to_string(),
                    r.agg.to_string(),
                    r.tier.to_string(),
                    format!("{:.1}", r.cold_ms),
                    format!("{:.2}", r.warm_p50_ms),
                    format!("{:.2}", r.warm_p99_ms),
                    format!("{:.0}", r.warm_qps),
                    r.scanned_raw.to_string(),
                    r.scanned_buckets.to_string(),
                    r.tier_misses_cold.to_string(),
                    r.raw_misses_cold.to_string(),
                ]
            })
            .collect();
        table(
            &[
                "fleet",
                "range",
                "window",
                "agg",
                "tier",
                "cold ms",
                "warm p50 ms",
                "warm p99 ms",
                "warm qps",
                "raw scanned",
                "buckets",
                "tier miss",
                "raw miss",
            ],
            &trows,
        );
        for r in &qrows {
            if r.window == "1h" && r.agg != "p99" {
                assert_eq!(r.tier, "1h", "1h windows must serve from the 1h tier");
                assert_eq!(r.raw_misses_cold, 0, "1h tier must not decode raw blocks");
            }
        }

        let (agents, frames, interval, dashes): (usize, u64, Duration, &[usize]) = if o.quick {
            (200, 6, Duration::from_millis(200), &[8])
        } else {
            (2000, 15, Duration::from_millis(500), &[16, 64])
        };
        let lrows = e17_query::live_sweep(agents, dashes, frames, interval);
        let baseline = lrows
            .iter()
            .find(|r| r.dashboards == 0 && r.completed)
            .map(|r| r.ingest_p99_us);
        let trows: Vec<Vec<String>> = lrows
            .iter()
            .map(|r| {
                if !r.completed {
                    let mut row = vec![
                        r.agents.to_string(),
                        r.dashboards.to_string(),
                        "did not complete".to_string(),
                    ];
                    row.extend((0..7).map(|_| "-".to_string()));
                    return row;
                }
                let vs = match baseline {
                    Some(b) if b > 0.0 && r.dashboards > 0 => {
                        format!("{:.2}x", r.ingest_p99_us / b)
                    }
                    _ => "-".to_string(),
                };
                vec![
                    r.agents.to_string(),
                    r.dashboards.to_string(),
                    r.ingested.to_string(),
                    format!("{:.0}", r.ingest_p50_us),
                    format!("{:.0}", r.ingest_p99_us),
                    vs,
                    r.queries_ok.to_string(),
                    r.queries_shed.to_string(),
                    format!("{:.1}", r.query_p50_ms),
                    format!("{:.1}", r.query_p99_ms),
                ]
            })
            .collect();
        table(
            &[
                "agents",
                "dashboards",
                "frames in",
                "ingest p50 us",
                "ingest p99 us",
                "vs baseline",
                "queries ok",
                "shed",
                "query p50 ms",
                "query p99 ms",
            ],
            &trows,
        );
        let json = e17_query::to_json(&qrows, &lrows);
        let json_path = "e17_query.json";
        if std::fs::write(json_path, &json).is_ok() {
            println!("(machine-readable copy written to {json_path})");
        }
    }

    println!("\ndone.");
}
