//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed `--flag value` pairs.
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parses alternating `--flag value` tokens, accepting only the flag
    /// names in `known` (the flags the calling subcommand reads).
    ///
    /// # Errors
    /// Returns a message for a dangling flag, a token that is not a flag, or
    /// a flag outside `known`.
    pub fn parse(argv: &[String], known: &[&str]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("expected a --flag, found '{flag}'"));
            };
            if !known.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            let Some(value) = it.next() else {
                return Err(format!("flag --{name} is missing its value"));
            };
            values.insert(name.to_string(), value.clone());
        }
        Ok(Self { values })
    }

    /// Required string flag.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.values
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Optional string flag.
    pub fn optional(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Typed flag with a default.
    ///
    /// # Errors
    /// Returns a message when the value fails to parse.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse '{raw}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    const KNOWN: &[&str] = &["k", "scheme"];

    #[test]
    fn parses_pairs() {
        let a = Args::parse(&argv(&["--k", "6", "--scheme", "asg"]), KNOWN).unwrap();
        assert_eq!(a.required("k").unwrap(), "6");
        assert_eq!(a.get_or("k", 0usize).unwrap(), 6);
        assert_eq!(a.optional("scheme"), Some("asg"));
        assert_eq!(a.optional("absent"), None);
        assert_eq!(a.get_or("absent", 3usize).unwrap(), 3);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Args::parse(&argv(&["k", "6"]), KNOWN).is_err());
        assert!(Args::parse(&argv(&["--k"]), KNOWN).is_err());
        let a = Args::parse(&argv(&["--k", "x"]), KNOWN).unwrap();
        assert!(a.get_or("k", 0usize).is_err());
        assert!(a.required("missing").is_err());
    }

    #[test]
    fn rejects_unknown_flags() {
        let err = Args::parse(&argv(&["--k", "4", "--shards", "4"]), KNOWN)
            .err()
            .unwrap();
        assert_eq!(err, "unknown flag --shards");
        assert!(Args::parse(&argv(&["--sheme", "ag"]), KNOWN).is_err());
    }
}
