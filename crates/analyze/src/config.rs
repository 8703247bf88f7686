//! `analyze.toml` — the analyzer's declared knowledge about the repo.
//!
//! Parsed with a hand-rolled reader for the tiny TOML subset the file uses
//! (sections, string values, string arrays, `#` comments), keeping the
//! crate dependency-free like the rest of the workspace.

use std::collections::BTreeMap;
use std::path::Path;

/// Parsed analyzer configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Path prefixes (workspace-relative) where the panic-path lint applies.
    pub panic_deny_in: Vec<String>,
}

impl Config {
    /// Loads and parses `analyze.toml` from `path`.
    pub fn load(path: &Path) -> Result<Config, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Config::parse(&text)
    }

    /// Parses the config text. Unknown keys are errors: a typo in the config
    /// must not silently disable a rule.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config::default();
        let mut seen: BTreeMap<String, ()> = BTreeMap::new();
        for (section, key, values) in parse_toml_subset(text)? {
            let full = format!("{section}.{key}");
            if seen.insert(full.clone(), ()).is_some() {
                return Err(format!("duplicate key {full} in analyze.toml"));
            }
            match full.as_str() {
                "panics.deny_in" => config.panic_deny_in = values,
                other => return Err(format!("unknown analyze.toml key {other}")),
            }
        }
        Ok(config)
    }
}

/// Parses `[section]` / `key = "v"` / `key = ["a", "b", ...]` lines
/// (arrays may span lines) into `(section, key, values)` triples.
fn parse_toml_subset(text: &str) -> Result<Vec<(String, String, Vec<String>)>, String> {
    let mut out = Vec::new();
    let mut section = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((n, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = name.trim().to_string();
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("analyze.toml line {}: expected `key = value`", n + 1))?;
        let key = key.trim().to_string();
        let mut value = value.trim().to_string();
        if value.starts_with('[') {
            // Join lines until the closing bracket.
            while !value.contains(']') {
                let (_, next) = lines
                    .next()
                    .ok_or_else(|| format!("analyze.toml: unterminated array for {key}"))?;
                value.push(' ');
                value.push_str(strip_comment(next).trim());
            }
            let inner = value
                .trim_start_matches('[')
                .rsplit_once(']')
                .map(|(a, _)| a)
                .unwrap_or("");
            let mut values = Vec::new();
            for item in inner.split(',') {
                let item = item.trim();
                if item.is_empty() {
                    continue;
                }
                values.push(unquote(item, &key)?);
            }
            out.push((section.clone(), key, values));
        } else {
            out.push((section.clone(), key.clone(), vec![unquote(&value, &key)?]));
        }
    }
    Ok(out)
}

/// Drops a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn unquote(s: &str, key: &str) -> Result<String, String> {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("analyze.toml: value for {key} must be a quoted string, got {s}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let c = Config::parse(
            r#"
# comment
[panics]
deny_in = [
    "crates/engine/src",  # worker paths
    "crates/serve/src",
]
"#,
        )
        .unwrap();
        assert_eq!(
            c.panic_deny_in,
            vec!["crates/engine/src", "crates/serve/src"]
        );
    }

    #[test]
    fn unknown_key_is_an_error() {
        assert!(Config::parse("[panics]\ntypo = [\"x\"]").is_err());
        assert!(Config::parse("[sync]\nscan = [\"crates\"]").is_err());
    }

    #[test]
    fn duplicate_key_is_an_error() {
        assert!(Config::parse("[panics]\ndeny_in = [\"a\"]\ndeny_in = [\"b\"]").is_err());
    }

    #[test]
    fn unquoted_value_is_an_error() {
        assert!(Config::parse("[panics]\ndeny_in = bare").is_err());
    }
}
