//! Typed scenario errors.
//!
//! Every way a scenario file can be wrong maps onto one
//! [`ScenarioError`] variant carrying the JSON path of the offending
//! field — parsing and building never panic, no matter how hostile the
//! document. The runner's own failures (transport, pipeline rejections)
//! live in [`RunError`](crate::RunError) instead.

/// A typed scenario parsing/validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The document is not valid JSON at all.
    Json {
        /// The underlying parser message.
        reason: String,
    },
    /// A field the schema does not define (or a duplicated key). Unknown
    /// fields are rejected rather than ignored so a typo'd knob cannot
    /// silently run with its default.
    UnknownField {
        /// JSON path of the offending field.
        path: String,
    },
    /// A required field is absent.
    MissingField {
        /// JSON path of the missing field.
        path: String,
    },
    /// A field holds a value of the wrong JSON type.
    TypeMismatch {
        /// JSON path of the offending field.
        path: String,
        /// What the schema expects there.
        expected: &'static str,
    },
    /// A numeric knob is NaN or infinite (reachable via JSON like
    /// `1e999`, which overflows to infinity).
    NonFinite {
        /// JSON path of the offending field.
        path: String,
    },
    /// A duration string does not parse (expected a non-negative finite
    /// number with an `s` or `ms` suffix, e.g. `"250ms"` or `"1.5s"`).
    BadDuration {
        /// JSON path of the offending field.
        path: String,
        /// What was wrong with it.
        reason: String,
    },
    /// A field parses but holds a value outside its allowed range, or a
    /// one-of section names no (or more than one) variant.
    InvalidValue {
        /// JSON path of the offending field.
        path: String,
        /// The violated constraint.
        reason: String,
    },
    /// The scenario describes zero tags.
    EmptyPopulation,
    /// The seeded simulation produced no usable input (for example, a
    /// noise model harsh enough that nothing was ever read).
    Simulation {
        /// The underlying pipeline error.
        reason: String,
    },
    /// Reading the scenario file itself failed.
    Io {
        /// The file path.
        path: String,
        /// The I/O error message.
        reason: String,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Json { reason } => write!(f, "invalid JSON: {reason}"),
            ScenarioError::UnknownField { path } => {
                write!(f, "unknown (or duplicated) field `{path}`")
            }
            ScenarioError::MissingField { path } => write!(f, "missing required field `{path}`"),
            ScenarioError::TypeMismatch { path, expected } => {
                write!(f, "`{path}` must be {expected}")
            }
            ScenarioError::NonFinite { path } => write!(f, "`{path}` must be finite"),
            ScenarioError::BadDuration { path, reason } => {
                write!(f, "`{path}` is not a valid duration: {reason}")
            }
            ScenarioError::InvalidValue { path, reason } => write!(f, "`{path}`: {reason}"),
            ScenarioError::EmptyPopulation => write!(f, "scenario describes zero tags"),
            ScenarioError::Simulation { reason } => {
                write!(f, "simulation produced no usable input: {reason}")
            }
            ScenarioError::Io { path, reason } => write!(f, "cannot read `{path}`: {reason}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A failed derived read becomes the variant for its kind of failure, at
/// the failure's JSON path.
impl From<serde::Error> for ScenarioError {
    fn from(error: serde::Error) -> Self {
        let path = error.path().to_string();
        let reason = error.message().to_string();
        match error.kind() {
            serde::ErrorKind::Syntax => ScenarioError::Json { reason },
            serde::ErrorKind::InvalidType(expected) => {
                ScenarioError::TypeMismatch { path, expected }
            }
            serde::ErrorKind::NonFinite => ScenarioError::NonFinite { path },
            serde::ErrorKind::UnknownField => ScenarioError::UnknownField { path },
            serde::ErrorKind::MissingField => ScenarioError::MissingField { path },
            serde::ErrorKind::UnknownVariant => ScenarioError::InvalidValue { path, reason },
            // The one reader in the schema with rules of its own is the
            // duration's.
            serde::ErrorKind::Custom => ScenarioError::BadDuration { path, reason },
        }
    }
}
