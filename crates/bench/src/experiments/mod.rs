//! One module per table / figure of the paper, plus extensions.
//!
//! Every experiment is `fn run(&Scale) -> Vec<SeriesSet>`, or
//! `fn run(&Scale, &Path) -> Vec<SeriesSet>` when it also keeps a
//! `BENCH_*.json` record, which it writes into the directory it is
//! given. The returned sets carry paper-style titles so the binary can
//! print and persist them uniformly.

pub mod ext_ablation;
pub mod ext_bounds;
pub mod ext_cluster_messages;
pub mod ext_dds_vs_drs;
pub mod ext_engine;
pub mod ext_engine_checkpoint;
pub mod ext_engine_conns;
pub mod ext_engine_lateness;
pub mod ext_engine_sliding;
pub mod ext_engine_wire;
pub mod ext_hot_path;
pub mod ext_obs_overhead;
pub mod fig51;
pub mod fig52;
pub mod fig53;
pub mod fig54;
pub mod fig55;
pub mod fig56;
pub mod fig5758;
pub mod fig59510;
pub mod table51;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dds_sim::metrics::SeriesSet;

use crate::Scale;

/// Shortest timed run of a gated rate measurement: passes repeat until
/// it is reached. `ext_obs_overhead`'s ~1 ms runs read −35 % to +188 %
/// on an unchanged engine, and `ext_hot_path`'s ~20 ms points wandered
/// ~10 %.
pub(crate) const RUN_TIME: Duration = Duration::from_millis(200);

/// Elements per second of `pass` run back to back until [`RUN_TIME`]
/// has elapsed, the clock stopping after `settle` (a flush barrier).
/// `pass(i)` feeds pass `i` and returns the elements it fed.
pub(crate) fn timed_rate(mut pass: impl FnMut(u64) -> u64, settle: impl FnOnce()) -> f64 {
    let started = Instant::now();
    let mut elements = 0u64;
    for i in 0u64.. {
        elements += pass(i);
        if started.elapsed() >= RUN_TIME {
            break;
        }
    }
    settle();
    elements as f64 / started.elapsed().as_secs_f64().max(1e-9)
}

/// Run the two sides of a compared measurement in round `round`'s
/// order — `a` first in even rounds, `b` first in odd ones, so neither
/// side always runs on the warmer or the quieter half of a round — and
/// return their results as `(a, b)`.
pub(crate) fn in_turn<T>(round: u32, a: impl FnOnce() -> T, b: impl FnOnce() -> T) -> (T, T) {
    if round % 2 == 0 {
        let first = a();
        (first, b())
    } else {
        let first = b();
        (a(), first)
    }
}

/// A named, runnable experiment.
pub struct Experiment {
    /// Short id used on the CLI (`fig51`, `table51`, `ext_bounds`, …).
    pub id: &'static str,
    /// What the paper shows there.
    pub title: &'static str,
    /// Produce the figure series at a given scale, writing any
    /// `BENCH_*.json` record into the given directory.
    pub run: fn(&Scale, &Path) -> Vec<SeriesSet>,
}

/// The full experiment registry, in paper order.
#[must_use]
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table51",
            title: "Table 5.1: dataset element/distinct counts",
            run: |scale, _| table51::run(scale),
        },
        Experiment {
            id: "fig51",
            title: "Figure 5.1: messages vs elements under flooding/random/round-robin",
            run: |scale, _| fig51::run(scale),
        },
        Experiment {
            id: "fig52",
            title: "Figure 5.2: messages vs sample size s",
            run: |scale, _| fig52::run(scale),
        },
        Experiment {
            id: "fig53",
            title: "Figure 5.3: messages vs number of sites k",
            run: |scale, _| fig53::run(scale),
        },
        Experiment {
            id: "fig54",
            title: "Figure 5.4: Broadcast vs proposed, messages vs elements",
            run: |scale, _| fig54::run(scale),
        },
        Experiment {
            id: "fig55",
            title: "Figure 5.5: Broadcast vs proposed, messages vs sample size",
            run: |scale, _| fig55::run(scale),
        },
        Experiment {
            id: "fig56",
            title: "Figure 5.6: Broadcast vs proposed vs dominate rate",
            run: |scale, _| fig56::run(scale),
        },
        Experiment {
            id: "fig57",
            title: "Figures 5.7 & 5.8: sliding windows vs window size",
            run: |scale, _| fig5758::run(scale),
        },
        Experiment {
            id: "fig59",
            title: "Figures 5.9 & 5.10: sliding windows vs number of sites",
            run: |scale, _| fig59510::run(scale),
        },
        Experiment {
            id: "ext_bounds",
            title: "Extension: measured messages vs Lemma 4 / Lemma 9 bounds",
            run: |scale, _| ext_bounds::run(scale),
        },
        Experiment {
            id: "ext_dds_vs_drs",
            title: "Extension: DDS vs DRS message scaling in k",
            run: |scale, _| ext_dds_vs_drs::run(scale),
        },
        Experiment {
            id: "ext_ablation",
            title: "Ablations: reply policy; sliding feedback; WR vs WOR",
            run: |scale, _| ext_ablation::run(scale),
        },
        Experiment {
            id: "ext_engine",
            title: "Extension: engine ingest throughput (shards × tenants × batch)",
            run: ext_engine::run,
        },
        Experiment {
            id: "ext_engine_sliding",
            title: "Extension: windowed-engine ingest throughput (shards × tenants × window)",
            run: ext_engine_sliding::run,
        },
        Experiment {
            id: "ext_engine_checkpoint",
            title: "Extension: engine checkpoint/restore throughput and size per tenant",
            run: ext_engine_checkpoint::run,
        },
        Experiment {
            id: "ext_engine_wire",
            title: "Extension: wire-served engine throughput and bytes per observation",
            run: ext_engine_wire::run,
        },
        Experiment {
            id: "ext_cluster_messages",
            title: "Extension: distributed-deployment message counts vs Lemma 4 and Broadcast",
            run: ext_cluster_messages::run,
        },
        Experiment {
            id: "ext_obs_overhead",
            title: "Extension: observability overhead, instrumented vs obs-noop ingest",
            run: ext_obs_overhead::run,
        },
        Experiment {
            id: "ext_hot_path",
            title: "Extension: hot-path gates — batch fusion, delta checkpoints, wire ratio",
            run: ext_hot_path::run,
        },
        Experiment {
            id: "ext_engine_lateness",
            title: "Extension: reorder-buffer gates — lateness-horizon throughput, drop accounting",
            run: ext_engine_lateness::run,
        },
        Experiment {
            id: "ext_engine_conns",
            title: "Extension: wire server — wire vs in-process at 16 producers, \
                    connection sweep, memory gate",
            run: ext_engine_conns::run,
        },
    ]
}

/// Parse the `experiments` arguments (after `--help`): the last scale
/// flag wins, and no id or `all` means every experiment. `--noop-bin
/// <path>` names the obs-noop build of the binary, which turns
/// `ext_obs_overhead` into its gate. Every other argument must be a
/// catalog id or an alias (`fig58`, `fig510`); the ones that are not
/// come back as the error, so a misspelled id or flag stops the run
/// instead of being skipped.
///
/// # Errors
/// The arguments that are neither a scale flag, `all`, an id, nor
/// `--noop-bin` with its path.
pub fn parse_args(
    args: &[String],
) -> Result<(Scale, Vec<Experiment>, Option<PathBuf>), Vec<String>> {
    let mut scale = Scale::quick();
    let mut noop_bin = None;
    let mut ids = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match (Scale::from_flag(arg), arg.as_str()) {
            (Some(s), _) => scale = s,
            (None, "--noop-bin") => match args.next() {
                Some(path) => noop_bin = Some(PathBuf::from(path)),
                None => ids.push(arg.as_str()),
            },
            _ => ids.push(arg.as_str()),
        }
    }
    let wanted: Vec<&str> = ids
        .iter()
        .map(|&id| match id {
            "fig58" => "fig57",
            "fig510" => "fig59",
            id => id,
        })
        .collect();
    let registry = all();
    let unknown: Vec<String> = wanted
        .iter()
        .filter(|&&id| id != "all" && !registry.iter().any(|e| e.id == id))
        .map(|id| (*id).to_string())
        .collect();
    if !unknown.is_empty() {
        return Err(unknown);
    }
    let every = wanted.is_empty() || wanted.contains(&"all");
    let chosen = registry
        .into_iter()
        .filter(|e| every || wanted.contains(&e.id))
        .collect();
    Ok((scale, chosen, noop_bin))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_table_and_figure() {
        let ids: Vec<&str> = all().iter().map(|e| e.id).collect();
        for required in [
            "table51",
            "fig51",
            "fig52",
            "fig53",
            "fig54",
            "fig55",
            "fig56",
            "fig57",
            "fig59",
            "ext_bounds",
            "ext_dds_vs_drs",
            "ext_ablation",
            "ext_engine",
            "ext_engine_sliding",
            "ext_engine_checkpoint",
            "ext_engine_wire",
            "ext_cluster_messages",
            "ext_obs_overhead",
            "ext_hot_path",
            "ext_engine_lateness",
            "ext_engine_conns",
        ] {
            assert!(ids.contains(&required), "missing experiment {required}");
        }
    }

    fn ids(args: &[&str]) -> Result<Vec<&'static str>, Vec<String>> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
        parse_args(&args).map(|(_, chosen, _)| chosen.iter().map(|e| e.id).collect())
    }

    #[test]
    fn select_filters_and_aliases() {
        assert_eq!(ids(&[]).unwrap().len(), all().len());
        assert_eq!(ids(&["all"]).unwrap().len(), all().len());
        assert_eq!(ids(&["fig54"]), Ok(vec!["fig54"]));
        assert_eq!(ids(&["fig58"]), Ok(vec!["fig57"]));
        assert_eq!(ids(&["fig510", "table51"]), Ok(vec!["table51", "fig59"]));
        let args = ["--medium".to_string(), "fig57".into()];
        assert_eq!(parse_args(&args).unwrap().0, Scale::medium());
        let args = ["ext_obs_overhead", "--noop-bin", "noop/experiments"].map(String::from);
        let (_, chosen, noop_bin) = parse_args(&args).unwrap();
        assert_eq!(chosen.len(), 1);
        assert_eq!(noop_bin, Some(PathBuf::from("noop/experiments")));
    }

    #[test]
    fn unknown_ids_and_flags_are_refused() {
        assert_eq!(ids(&["table51", "bogus_id"]), Err(vec!["bogus_id".into()]));
        assert_eq!(ids(&["--ful", "table51"]), Err(vec!["--ful".into()]));
        assert_eq!(ids(&["all", "fig5"]), Err(vec!["fig5".into()]));
        assert_eq!(ids(&["--noop-bin"]), Err(vec!["--noop-bin".into()]));
    }
}
