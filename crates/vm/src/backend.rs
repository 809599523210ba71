//! Execution-backend selection.
//!
//! The simulator has two ways to execute an instrumented module under the
//! one determinism layer (arbiter, logical clocks, checkpoints, sanitizer):
//!
//! * [`Backend::Interp`] — the tree-walking interpreter: decodes the IR
//!   instruction-by-instruction on every step. It is the semantic *oracle*:
//!   simple enough to audit against the paper.
//! * [`Backend::Threaded`] — the threaded-code engine (see
//!   [`crate::lower`]): lowers the module once into a flat pre-decoded
//!   program (opcodes with pre-resolved operand slots, jump targets as
//!   array indices, costs baked in) and dispatches on that. Differentially
//!   validated against the interpreter: byte-identical trace hashes,
//!   metrics, receipts, and sanitizer reports on every workload × opt
//!   config × jitter seed.
//!
//! The engine is a [`crate::machine::MachineConfig`] field like any other:
//! the constructor or a `--backend` flag (`interp` | `threaded`) sets it,
//! and `MachineConfig::default()` holds [`Backend::Interp`].

/// Which execution engine runs instructions under the determinism core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Tree-walking interpreter over the IR (the oracle).
    #[default]
    Interp,
    /// Flat pre-decoded threaded-code program (see [`crate::lower`]).
    Threaded,
}

impl Backend {
    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Result<Backend, String> {
        match s {
            "interp" => Ok(Backend::Interp),
            "threaded" => Ok(Backend::Threaded),
            other => Err(format!(
                "unknown backend '{other}' (expected 'interp' or 'threaded')"
            )),
        }
    }

    /// The canonical spelling (accepted back by [`Backend::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Interp => "interp",
            Backend::Threaded => "threaded",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_labels() {
        for b in [Backend::Interp, Backend::Threaded] {
            assert_eq!(Backend::parse(b.label()), Ok(b));
        }
        for other in ["jit", "interpreter"] {
            assert!(Backend::parse(other).is_err(), "{other}");
        }
    }

    #[test]
    fn default_is_the_oracle() {
        assert_eq!(Backend::default(), Backend::Interp);
    }
}
