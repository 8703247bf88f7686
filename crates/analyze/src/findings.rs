//! Findings and the committed baseline.
//!
//! A finding is one diagnostic from one rule. The baseline
//! (`analyze-baseline.json`) is the set of finding keys the repo has
//! explicitly chosen to tolerate; everything else fails the run. New code
//! therefore cannot add violations, and baselined ones are visible debt:
//! the file is committed, reviewed, and must shrink, never silently grow.

use std::fmt;
use std::path::Path;

/// The rules, used as stable finding-key prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    PanicPath,
}

impl Rule {
    /// Stable kebab-case name (baseline keys, CLI output).
    pub fn name(self) -> &'static str {
        match self {
            Rule::PanicPath => "panic-path",
        }
    }

    /// All rules, in reporting order.
    pub const ALL: [Rule; 1] = [Rule::PanicPath];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line (0 for whole-file findings).
    pub line: u32,
    /// Human message.
    pub message: String,
    /// Short stable discriminator for the baseline key. Line numbers are
    /// NOT part of the key — unrelated edits above a baselined finding must
    /// not resurrect it — so the ident (panic site and function) is.
    pub key_detail: String,
}

impl Finding {
    pub fn new(
        rule: Rule,
        file: impl Into<String>,
        line: u32,
        key_detail: impl Into<String>,
        message: impl Into<String>,
    ) -> Finding {
        Finding {
            rule,
            file: file.into(),
            line,
            message: message.into(),
            key_detail: key_detail.into(),
        }
    }

    /// The stable baseline key: `rule|file|detail`. Several findings may
    /// share a key (e.g. two unjustified `unwrap`s of the same function in
    /// one file); baselining the key tolerates all of them, which is the
    /// conservative direction for a burn-down list.
    pub fn key(&self) -> String {
        format!("{}|{}|{}", self.rule, self.file, sanitize(&self.key_detail))
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

/// Keeps keys JSON- and shell-friendly.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c == '"' || c == '\\' || c == '\n' {
                '_'
            } else {
                c
            }
        })
        .collect()
}

/// The committed set of tolerated finding keys.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    pub keys: Vec<String>,
}

impl Baseline {
    /// Loads `analyze-baseline.json`; a missing file is an empty baseline.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        if !path.exists() {
            return Ok(Baseline::default());
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the baseline document: a JSON object whose `findings` member
    /// is an array of key strings. Hand-rolled for this one fixed shape.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let start = text
            .find("\"findings\"")
            .ok_or("missing \"findings\" member")?;
        let open = text[start..]
            .find('[')
            .map(|i| start + i)
            .ok_or("missing findings array")?;
        let close = text[open..]
            .find(']')
            .map(|i| open + i)
            .ok_or("unterminated findings array")?;
        let mut keys = Vec::new();
        let body = &text[open + 1..close];
        let mut rest = body;
        while let Some(q) = rest.find('"') {
            let after = &rest[q + 1..];
            let end = after.find('"').ok_or("unterminated key string")?;
            keys.push(after[..end].to_string());
            rest = &after[end + 1..];
        }
        Ok(Baseline { keys })
    }

    /// Serializes back to the committed JSON shape.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
        for (i, key) in self.keys.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    \"");
            out.push_str(key);
            out.push('"');
        }
        if !self.keys.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Splits findings into (new, baselined) and reports stale keys that no
    /// finding produces anymore.
    pub fn diff<'a>(&self, findings: &'a [Finding]) -> Diff<'a> {
        let mut stale: Vec<String> = self.keys.clone();
        let mut new = Vec::new();
        let mut baselined = Vec::new();
        for f in findings {
            let key = f.key();
            if self.keys.contains(&key) {
                stale.retain(|k| k != &key);
                baselined.push(f);
            } else {
                new.push(f);
            }
        }
        Diff {
            new,
            baselined,
            stale,
        }
    }
}

/// Result of diffing current findings against the baseline.
#[derive(Debug)]
pub struct Diff<'a> {
    /// Findings not covered by the baseline: always a failure.
    pub new: Vec<&'a Finding>,
    /// Findings the baseline tolerates (visible debt).
    pub baselined: Vec<&'a Finding>,
    /// Baseline keys with no matching finding: the baseline is stale and
    /// must be refreshed (burned-down debt must disappear from the file).
    pub stale: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(detail: &str) -> Finding {
        Finding::new(Rule::PanicPath, "a.rs", 3, detail, "msg")
    }

    #[test]
    fn baseline_round_trip() {
        let b = Baseline {
            keys: vec![finding("unwrap@f").key(), finding("expect@g").key()],
        };
        let parsed = Baseline::parse(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
        let empty = Baseline::default();
        assert_eq!(Baseline::parse(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn diff_classifies() {
        let b = Baseline {
            keys: vec![finding("old").key(), finding("gone").key()],
        };
        let found = vec![finding("old"), finding("fresh")];
        let d = b.diff(&found);
        assert_eq!(d.new.len(), 1);
        assert_eq!(d.new[0].key_detail, "fresh");
        assert_eq!(d.baselined.len(), 1);
        assert_eq!(d.stale, vec![finding("gone").key()]);
    }

    #[test]
    fn key_is_line_independent() {
        let a = Finding::new(Rule::PanicPath, "a.rs", 3, "unwrap@f", "m");
        let b = Finding::new(Rule::PanicPath, "a.rs", 99, "unwrap@f", "m");
        assert_eq!(a.key(), b.key());
    }
}
