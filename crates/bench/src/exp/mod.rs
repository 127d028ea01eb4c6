//! One module per table / figure of the thesis' evaluation, plus the
//! collectives, serving and workload-registry tables.

pub mod ablation;
pub mod apps;
pub mod coll;
pub mod fault_uts;
pub mod fig_3_3;
pub mod fig_3_4;
pub mod fig_4_2;
pub mod fig_4_4;
pub mod fig_4_5;
pub mod fig_4_6;
pub mod serve;
pub mod table_3_1;
#[cfg(feature = "trace")]
pub mod trace;
pub mod table_3_2;
pub mod table_4_1;

use crate::Table;

/// One reproducible table / figure: the name `repro` takes and the
/// generator (`quick` in, tables out).
pub type Experiment = (&'static str, fn(bool) -> Vec<Table>);

/// Every thesis table and figure in thesis order, then the tables the
/// subsystems beyond the thesis are judged by (hierarchical collectives,
/// KV serving, the workload-registry sweep) — the one list behind
/// `repro <name>` and `all_experiments`.
pub const EXPERIMENTS: [Experiment; 14] = [
    ("table_3_1", table_3_1::run),
    ("fig_3_3", fig_3_3::run),
    ("table_3_2", table_3_2::run),
    ("fig_3_4", fig_3_4::run),
    ("table_4_1", table_4_1::run),
    ("fig_4_2", fig_4_2::run),
    ("fig_4_4", fig_4_4::run),
    ("fig_4_5", fig_4_5::run),
    ("fig_4_6", fig_4_6::run),
    ("ablation", ablation::run),
    ("fault_uts", fault_uts::run),
    ("coll", coll::run),
    ("serve", serve::run),
    ("apps", apps::run),
];

/// `repro` was asked for a name that is not in [`EXPERIMENTS`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownExperiment(pub String);

impl std::fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        write!(
            f,
            "unknown experiment '{}' (known: {})",
            self.0,
            known.join(", ")
        )
    }
}

impl std::error::Error for UnknownExperiment {}

/// Look an experiment up by its `repro` name.
pub fn find(name: &str) -> Result<&'static Experiment, UnknownExperiment> {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| UnknownExperiment(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_resolves_every_listed_name_and_rejects_others() {
        for (name, _) in &EXPERIMENTS {
            assert_eq!(find(name).unwrap().0, *name);
        }
        let err = find("fig_9_9").unwrap_err();
        assert_eq!(err, UnknownExperiment("fig_9_9".into()));
        assert!(err.to_string().contains("table_3_1"), "{err}");
    }
}
