//! One module per table / figure of the paper, plus extensions.
//!
//! Every experiment is `fn run(&Scale) -> Vec<SeriesSet>`, or
//! `fn run(&Scale, &Path) -> Vec<SeriesSet>` when it also keeps a
//! `BENCH_*.json` record, which it writes into the directory it is
//! given. The returned sets carry paper-style titles so the binary and
//! the bench targets can print and persist them uniformly.

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

use std::path::Path;

use dds_sim::metrics::SeriesSet;

use crate::Scale;

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

/// Look up experiments by CLI selector (`all` or an id list).
#[must_use]
pub fn select(ids: &[String]) -> Vec<Experiment> {
    let registry = all();
    if ids.is_empty() || ids.iter().any(|s| s == "all") {
        return registry;
    }
    registry
        .into_iter()
        .filter(|e| {
            ids.iter().any(|want| {
                e.id == want
                    || (want == "fig58" && e.id == "fig57")
                    || (want == "fig510" && e.id == "fig59")
            })
        })
        .collect()
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

    #[test]
    fn select_filters_and_aliases() {
        assert_eq!(select(&[]).len(), all().len());
        assert_eq!(select(&["all".into()]).len(), all().len());
        let one = select(&["fig54".into()]);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].id, "fig54");
        let alias = select(&["fig58".into()]);
        assert_eq!(alias.len(), 1);
        assert_eq!(alias[0].id, "fig57");
    }
}
