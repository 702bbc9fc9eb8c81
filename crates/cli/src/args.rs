//! Tiny flag parser shared by the subcommands (kept dependency-free).

use std::collections::BTreeMap;

/// Parsed positional arguments and `--flag [value]` options.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, Option<String>>,
}

impl Args {
    /// Parses raw arguments against one subcommand's vocabulary, given as
    /// space-separated names: `flags` take no value, `options` take one
    /// (`--name value`), and `-o` is an alias for `--out`. Any other option
    /// is an error naming it, so a misspelt option never runs silently
    /// with its default.
    pub fn parse(raw: &[String], flags: &str, options: &str) -> Result<Self, String> {
        let known = |names: &str, name: &str| names.split_whitespace().any(|n| n == name);
        let mut out = Args::default();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            let name = match a.strip_prefix("--") {
                Some(name) => name,
                None if a == "-o" => "out",
                None => {
                    out.positional.push(a.clone());
                    i += 1;
                    continue;
                }
            };
            if known(flags, name) {
                out.options.insert(name.to_owned(), None);
                i += 1;
            } else if known(options, name) {
                let value = raw
                    .get(i + 1)
                    .ok_or_else(|| format!("option {a} needs a value"))?;
                out.options.insert(name.to_owned(), Some(value.clone()));
                i += 2;
            } else {
                return Err(format!("unknown option {a}"));
            }
        }
        Ok(out)
    }

    /// The required protocol-file positional argument.
    pub fn file(&self) -> Result<&str, String> {
        self.positional
            .first()
            .map(String::as_str)
            .ok_or_else(|| "missing <file.stab> argument".to_owned())
    }

    /// The `i`-th positional argument, if present (for subcommands that
    /// take an action word plus a file, like `registry show FILE`).
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// `true` if a boolean flag is present.
    pub fn flag(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// A string-valued option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).and_then(|v| v.as_deref())
    }

    /// A numeric option with a default.
    pub fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{name} expects a number, got `{v}`")),
        }
    }

    /// A required numeric option.
    pub fn require_usize(&self, name: &str) -> Result<usize, String> {
        let v = self
            .get(name)
            .ok_or_else(|| format!("missing required option --{name}"))?;
        v.parse()
            .map_err(|_| format!("option --{name} expects a number, got `{v}`"))
    }

    /// A u64 option with a default (for seeds).
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{name} expects a number, got `{v}`")),
        }
    }
}

/// Loads and parses the protocol file named by the first positional arg.
pub fn load_protocol(
    args: &Args,
) -> Result<selfstab_protocol::Protocol, Box<dyn std::error::Error>> {
    let path = args.file()?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Ok(
        selfstab_protocol::file::parse_protocol_file(&source)
            .map_err(|e| format!("{path}: {e}"))?,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &str = "ltg json";
    const OPTIONS: &str = "k max seed out";

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    fn parse(items: &[&str]) -> Result<Args, String> {
        Args::parse(&argv(items), FLAGS, OPTIONS)
    }

    #[test]
    fn positional_and_options() {
        let a = parse(&["f.stab", "--k", "5", "--ltg", "-o", "out.dot"]).unwrap();
        assert_eq!(a.file().unwrap(), "f.stab");
        assert_eq!(a.get_usize("k", 0).unwrap(), 5);
        assert!(a.flag("ltg"));
        assert_eq!(a.get("out"), Some("out.dot"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["f", "--k"]).is_err());
    }

    #[test]
    fn unknown_options_are_errors_that_name_the_option() {
        let err = parse(&["f", "--k", "3", "--thraeds", "4"]).unwrap_err();
        assert!(err.contains("--thraeds"), "{err}");
        // A flag of another subcommand is unknown here too.
        assert!(parse(&["f", "--first"]).unwrap_err().contains("--first"));
        // `-o` is an alias only where `out` is accepted.
        let err = Args::parse(&argv(&["f", "-o", "x"]), FLAGS, "k").unwrap_err();
        assert!(err.contains("-o"), "{err}");
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = parse(&["f", "--k", "five"]).unwrap();
        assert!(a.get_usize("k", 0).is_err());
        assert!(a.require_usize("k").is_err());
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["f"]).unwrap();
        assert_eq!(a.get_usize("max", 20).unwrap(), 20);
        assert_eq!(a.get_u64("seed", 42).unwrap(), 42);
        assert!(!a.flag("ltg"));
    }

    #[test]
    fn missing_file_is_reported() {
        let a = parse(&["--k", "3"]).unwrap();
        assert!(a.file().is_err());
    }
}
