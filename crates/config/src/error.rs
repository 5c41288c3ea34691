//! Configuration validation errors.

use std::error::Error;
use std::fmt;

/// An invalid configuration, reported by [`crate::GpuConfig::validate`].
///
/// Carries the offending parameter name and a human-readable constraint
/// description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    param: &'static str,
    constraint: String,
}

impl ConfigError {
    /// Creates an error for `param` violating `constraint`.
    pub fn new(param: &'static str, constraint: impl Into<String>) -> Self {
        ConfigError {
            param,
            constraint: constraint.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config: {} {}", self.param, self.constraint)
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_parameter() {
        let e = ConfigError::new("l2.access_queue", "must be positive");
        assert!(e.to_string().contains("l2.access_queue"));
        assert!(e.to_string().contains("must be positive"));
    }
}
