//! Experiment scaling knobs.
//!
//! The paper simulates 200 M instructions per core after 100 M of warmup.
//! Relative IPC/energy deltas in a trace-driven closed-loop model
//! stabilise at much smaller budgets; the scale selects the trade-off.

/// How big an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// CI-sized: seconds per experiment.
    Smoke,
    /// Minutes per experiment — the default for the bench binaries.
    #[default]
    Default,
    /// Closest to paper scale (tens of minutes for the full sweeps).
    Full,
}

impl Scale {
    /// The scale the `CLR_SCALE` environment variable selects (see
    /// [`crate::system::scale_from`]).
    ///
    /// # Panics
    ///
    /// Panics if `CLR_SCALE` is set to anything but `smoke`, `default`,
    /// `full` or empty.
    pub fn from_env() -> Self {
        crate::system::scale_from(crate::system::process_env)
    }

    /// Instructions each core must retire in the measurement window.
    pub fn budget_insts(self) -> u64 {
        match self {
            Scale::Smoke => 30_000,
            Scale::Default => 250_000,
            Scale::Full => 2_000_000,
        }
    }

    /// Warmup instructions per core before measurement.
    pub fn warmup_insts(self) -> u64 {
        match self {
            Scale::Smoke => 5_000,
            Scale::Default => 50_000,
            Scale::Full => 400_000,
        }
    }

    /// Multiprogrammed mixes per group (paper: 30).
    pub fn mixes_per_group(self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Default => 8,
            Scale::Full => 30,
        }
    }

    /// Workloads used in the single-core sweeps (paper: all 71).
    pub fn single_core_workloads(self) -> usize {
        match self {
            Scale::Smoke => 6,
            Scale::Default => 71,
            Scale::Full => 71,
        }
    }

    /// Monte-Carlo iterations for circuit experiments (paper: 10⁴).
    pub fn monte_carlo_iterations(self) -> usize {
        match self {
            Scale::Smoke => 20,
            Scale::Default => 200,
            Scale::Full => 10_000,
        }
    }

    /// Human-readable label for report headers.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Smoke.budget_insts() < Scale::Default.budget_insts());
        assert!(Scale::Default.budget_insts() < Scale::Full.budget_insts());
        assert!(Scale::Full.mixes_per_group() == 30);
    }

    #[test]
    fn env_parsing_defaults_safely() {
        // An unset CLR_SCALE → Default.
        assert_eq!(crate::system::scale_from(|_| None), Scale::Default);
    }
}
