//! Minimal `--key value` option parsing for the CLI (no dependencies).

/// Parsed `--key value` pairs.
pub struct Opts {
    pairs: Vec<(String, String)>,
}

impl Opts {
    /// Parse a flat argument list of `--key value` pairs. Only the flags
    /// named in `known` (space-separated, without dashes) are accepted: a
    /// misspelt or foreign flag must not be silently ignored, so it is an
    /// error naming the flag.
    pub fn parse(args: &[String], known: &str) -> Result<Opts, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let Some(key) = args[i].strip_prefix("--") else {
                return Err(format!("expected --flag, got {}", args[i]));
            };
            if !known.split_whitespace().any(|k| k == key) {
                return Err(format!("unknown flag --{key} for this command"));
            }
            let Some(val) = args.get(i + 1) else {
                return Err(format!("--{key} needs a value"));
            };
            pairs.push((key.to_string(), val.clone()));
            i += 2;
        }
        Ok(Opts { pairs })
    }

    /// Typed lookup with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get_str(key) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("error: --{key} got an unparsable value {v:?}");
                std::process::exit(2);
            }),
            None => default,
        }
    }

    /// Raw string lookup.
    pub fn get_str(&self, key: &str) -> Option<String> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_typed_values() {
        let args = strs(&["--n", "42", "--theta", "1.5", "--out", "x.txt"]);
        let o = Opts::parse(&args, "n theta out").expect("known flags");
        assert_eq!(o.get("n", 0u32), 42);
        assert_eq!(o.get("theta", 0.0f64), 1.5);
        assert_eq!(o.get_str("out").as_deref(), Some("x.txt"));
        assert_eq!(o.get("missing", 7u32), 7);
    }

    #[test]
    fn last_occurrence_wins() {
        let o = Opts::parse(&strs(&["--n", "1", "--n", "2"]), "n").expect("known flag");
        assert_eq!(o.get("n", 0u32), 2);
    }

    #[test]
    fn unknown_flags_are_errors_naming_the_flag() {
        let known = "n d alpha";
        let err = Opts::parse(&strs(&["--n", "16", "--d", "2", "--aplha", "3"]), known)
            .err()
            .expect("a misspelt flag is an error");
        assert!(err.contains("--aplha"), "error: {err}");
        // Rejected wherever it appears, and even without a value; a known
        // name's prefix is not a match.
        assert!(Opts::parse(&strs(&["--max-conns", "4", "--n", "16"]), known).is_err());
        assert!(Opts::parse(&strs(&["--n", "16", "--bogus"]), known).is_err());
        assert!(Opts::parse(&strs(&["--alp", "3"]), known).is_err());
        // Malformed lists stay errors too.
        assert!(Opts::parse(&strs(&["16"]), known).is_err());
        assert!(Opts::parse(&strs(&["--n"]), known).is_err());
    }
}
