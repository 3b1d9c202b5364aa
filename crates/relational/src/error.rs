//! Typed errors for the relational layer.
//!
//! Malformed algebra (arity mismatches, out-of-range positions, unknown
//! names) is always surfaced as an [`RelError`], never a panic: failure
//! injection tests rely on this.

use crate::RelName;
use std::fmt;

/// Errors raised while building or evaluating relational expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelError {
    /// A tuple's arity does not match the relation's declared arity.
    ArityMismatch {
        /// What was being built or evaluated.
        context: &'static str,
        /// Declared/expected arity.
        expected: usize,
        /// Arity actually supplied.
        found: usize,
    },
    /// Set operation over operands of different arities.
    IncompatibleArities {
        /// The operation (`union`, `difference`, …).
        op: &'static str,
        /// Left operand arity.
        left: usize,
        /// Right operand arity.
        right: usize,
    },
    /// A positional reference `$i` outside `1..=arity`.
    PositionOutOfRange {
        /// 0-based position used.
        position: usize,
        /// Arity of the row it was applied to.
        arity: usize,
    },
    /// A relation name absent from the database instance.
    UnknownRelation(RelName),
    /// A selection/projection used a condition outside the formal core
    /// while core-only evaluation was requested.
    NonCoreCondition(&'static str),
    /// An execution interned more distinct values than the `u32` code
    /// space holds.
    CodeSpaceExhausted,
    /// A dictionary code outside the dictionary it is decoded against —
    /// e.g. a code minted after the decoding snapshot was taken.
    UnknownCode {
        /// The out-of-range code.
        code: u32,
        /// What was being decoded.
        context: &'static str,
    },
    /// A fixpoint exceeded the configured iteration budget
    /// (`ExecOptions::max_fixpoint_iters`) — the safety valve against
    /// pathological inputs that would otherwise loop for a very long
    /// time before converging.
    IterationLimit {
        /// The configured iteration budget that was exhausted.
        limit: usize,
        /// Iterations actually performed before giving up (always
        /// `limit + 1`: the first round past the budget trips it).
        iterations: usize,
    },
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::ArityMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "arity mismatch in {context}: expected {expected}, found {found}"
            ),
            RelError::IncompatibleArities { op, left, right } => {
                write!(f, "{op} over incompatible arities {left} and {right}")
            }
            RelError::PositionOutOfRange { position, arity } => write!(
                f,
                "position ${} out of range for arity {arity}",
                position + 1
            ),
            RelError::UnknownRelation(n) => write!(f, "unknown relation {n}"),
            RelError::NonCoreCondition(what) => {
                write!(f, "condition uses non-core construct: {what}")
            }
            RelError::CodeSpaceExhausted => {
                write!(f, "more distinct values than the u32 code space holds")
            }
            RelError::UnknownCode { code, context } => {
                write!(
                    f,
                    "code {code} not in the dictionary while decoding {context}"
                )
            }
            RelError::IterationLimit { limit, iterations } => {
                write!(
                    f,
                    "fixpoint exceeded max_fixpoint_iters = {limit} (stopped after {iterations} iterations)"
                )
            }
        }
    }
}

impl std::error::Error for RelError {}

/// Result alias for the relational layer.
pub type RelResult<T> = Result<T, RelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = RelError::ArityMismatch {
            context: "insert",
            expected: 2,
            found: 3,
        };
        assert!(e.to_string().contains("insert"));
        let e = RelError::PositionOutOfRange {
            position: 4,
            arity: 3,
        };
        assert!(e.to_string().contains("$5"));
        let e = RelError::UnknownRelation("R".into());
        assert!(e.to_string().contains('R'));
        let e = RelError::IncompatibleArities {
            op: "union",
            left: 1,
            right: 2,
        };
        assert!(e.to_string().contains("union"));
        let e = RelError::NonCoreCondition("constant comparison");
        assert!(e.to_string().contains("non-core"));
        assert!(RelError::CodeSpaceExhausted
            .to_string()
            .contains("code space"));
        let e = RelError::UnknownCode {
            code: 41,
            context: "coded batch",
        };
        assert!(e.to_string().contains("41"));
        let e = RelError::IterationLimit {
            limit: 4,
            iterations: 5,
        };
        assert!(e.to_string().contains("max_fixpoint_iters = 4"));
        assert!(e.to_string().contains("5 iterations"));
    }
}
