//! The knobs of the two-phase (random then deterministic) ATPG flow.

/// Configuration of the two-phase ATPG flow: the random phase's
/// sequence budget and control protocol, then the deterministic
/// (PODEM) phase's frame and backtrack bounds. The flow itself is
/// driven by `hlts-tcov`'s `grade`.
#[derive(Debug, Clone, PartialEq)]
pub struct AtpgConfig {
    /// RNG seed (runs are deterministic for a given seed).
    pub seed: u64,
    /// Number of 64-pattern random sequences to simulate.
    pub random_sequences: usize,
    /// Clock cycles per random sequence.
    pub sequence_cycles: usize,
    /// Fraction of random sequences that drive the control inputs as a
    /// rotating one-hot (the schedule protocol); the rest drive fully
    /// random control — both mixes matter for data paths whose muxes
    /// and enables are schedule-driven.
    pub protocol_fraction: f64,
    /// Time frames for the deterministic (PODEM) phase.
    pub frames: usize,
    /// Backtrack limit per deterministic target.
    pub backtrack_limit: usize,
    /// Cap on deterministic targets (remaining faults stay undetected).
    pub max_deterministic_targets: usize,
    /// Optional fault-sampling cap (standard practice for large fault
    /// lists; coverage is then a sample estimate).
    pub fault_sample: Option<usize>,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            seed: 0x1998_0223,
            random_sequences: 24,
            sequence_cycles: 12,
            // the controller steps through its states even under a test
            // plan, so random vectors default to the one-hot protocol
            protocol_fraction: 1.0,
            frames: 6,
            backtrack_limit: 100,
            max_deterministic_targets: 200,
            fault_sample: None,
        }
    }
}
