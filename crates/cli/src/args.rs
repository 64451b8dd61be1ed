//! Minimal flag parsing shared by the subcommands.

use std::collections::HashMap;

/// Parsed `--flag value` pairs plus bare `--switch`es.
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses the argument list against one command's flags: a name in
    /// `valued` takes exactly one value, a name in `switches` takes none,
    /// and any other `--name` is an error.
    pub fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut found_switches = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("expected a --flag, found {flag:?}"));
            }
            let name = flag.trim_start_matches("--").to_string();
            if switches.contains(&name.as_str()) {
                found_switches.push(name);
            } else if !valued.contains(&name.as_str()) {
                return Err(format!("unknown flag --{name}"));
            } else {
                // A following flag is never a value: an unknown or removed
                // switch must not silently swallow the flag after it.
                let value = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("--{name} expects a value"))?;
                values.insert(name, value.clone());
            }
        }
        Ok(Self {
            values,
            switches: found_switches,
        })
    }

    /// The raw string for a flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A parsed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value {raw:?} for --{name}")),
        }
    }

    /// A required parsed value.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self
            .get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))?;
        raw.parse()
            .map_err(|_| format!("invalid value {raw:?} for --{name}"))
    }

    /// `true` if the bare switch was given.
    pub fn has_switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALUED: &[&str] = &["in", "threads"];

    fn parse(s: &str, switches: &[&str]) -> Result<Flags, String> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        Flags::parse(&args, VALUED, switches)
    }

    #[test]
    fn values_and_switches() {
        let f = parse("--in data.csv --threads 4 --bits", &["bits"]).unwrap();
        assert_eq!(f.get("in"), Some("data.csv"));
        assert_eq!(f.get_or::<usize>("threads", 1).unwrap(), 4);
        assert!(f.has_switch("bits"));
        assert!(!f.has_switch("other"));
        assert_eq!(f.get_or::<usize>("missing", 7).unwrap(), 7);
    }

    #[test]
    fn error_cases() {
        assert!(parse("bare", &[]).is_err());
        assert!(parse("--in", &[]).is_err());
        assert!(parse("--in --metrics", &["metrics"]).is_err());
        let f = parse("--threads x", &[]).unwrap();
        assert!(f.get_or::<usize>("threads", 1).is_err());
        assert!(f.require::<usize>("absent").is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_with_or_without_a_value() {
        let err = parse("--in f --batched 1", &["metrics"]).err().unwrap();
        assert!(err.contains("unknown flag --batched"), "{err}");
        assert!(parse("--batched --in f", &["metrics"]).is_err());
        assert!(parse("--in f --metrics", &["metrics"]).is_ok());
    }
}
