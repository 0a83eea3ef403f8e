//! Correctness checking of simulated outputs.
//!
//! Every operation a pass attempts (one simulation, one cluster job, one
//! DSE point, one aggregate invariant) becomes an [`Op`]: a key, the bit
//! patterns of its outputs, and an error if the program failed or an
//! invariant broke. Ops are compared against `expected.txt`, recorded
//! from a known-good build with `--record-expected`. Training keys do
//! not depend on the seed and are checked on every run; cluster and DSE
//! keys are checked when the seed is the one the file was recorded at.
//! At every seed, each op must also equal the first successful op with
//! its key in the run (the first untraced pass), so traced passes and
//! probes are checked against the untraced outputs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The seed `expected.txt` is recorded at.
pub const DEFAULT_SEED: u64 = 1;

const EXPECTED: &str = include_str!("../expected.txt");

/// One attempted operation and what it produced.
#[derive(Debug, Clone)]
pub struct Op {
    /// Stable key, e.g. `train/fig10/ResNet-152/Baseline`.
    pub key: String,
    /// Bit patterns of the outputs (or a digest of them).
    pub words: Vec<u64>,
    /// Why the operation failed, if it did.
    pub error: Option<String>,
}

impl Op {
    /// A successful operation.
    pub fn ok(key: impl Into<String>, words: Vec<u64>) -> Op {
        Op {
            key: key.into(),
            words,
            error: None,
        }
    }

    /// A failed operation.
    pub fn failed(key: impl Into<String>, error: impl Into<String>) -> Op {
        Op {
            key: key.into(),
            words: Vec::new(),
            error: Some(error.into()),
        }
    }

    /// Marks the operation failed (keeps the first reason).
    pub fn fail(&mut self, why: impl Into<String>) {
        if self.error.is_none() {
            self.error = Some(why.into());
        }
    }
}

/// Expected output words per key, for the seed they were recorded at.
#[derive(Debug, Clone)]
pub struct Expected {
    seed: u64,
    map: BTreeMap<String, Vec<u64>>,
}

impl Expected {
    /// The values compiled into the benchmark.
    pub fn builtin() -> Expected {
        Expected::parse(EXPECTED)
    }

    /// Parses the `expected.txt` format: a `# seed <n>` header, then one
    /// `<key> <hex word>...` line per operation.
    pub fn parse(text: &str) -> Expected {
        let mut seed = DEFAULT_SEED;
        let mut map = BTreeMap::new();
        for line in text.lines() {
            if let Some(s) = line.strip_prefix("# seed ") {
                seed = s.trim().parse().expect("expected.txt: bad seed header");
                continue;
            }
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let key = parts.next().expect("non-empty line has a key").to_string();
            let words = parts
                .map(|w| u64::from_str_radix(w, 16).expect("expected.txt: bad hex word"))
                .collect();
            map.insert(key, words);
        }
        Expected { seed, map }
    }

    /// Renders ops in the `expected.txt` format.
    pub fn render(seed: u64, ops: &BTreeMap<String, Vec<u64>>) -> String {
        let mut s = String::new();
        writeln!(
            s,
            "# Expected simulated outputs (f64 bit patterns or FNV-1a digests)."
        )
        .unwrap();
        writeln!(
            s,
            "# Regenerate with: python3 perfbench/run.py --record-expected"
        )
        .unwrap();
        writeln!(s, "# seed {seed}").unwrap();
        for (key, words) in ops {
            s.push_str(key);
            for w in words {
                write!(s, " {w:016x}").unwrap();
            }
            s.push('\n');
        }
        s
    }

    /// Whether `key` has an expected value at `seed`.
    fn applies(&self, key: &str, seed: u64) -> bool {
        key.starts_with("train/") || seed == self.seed
    }

    /// A copy with the first word of `key` bit-flipped (the self-test's
    /// deliberately corrupted value).
    pub fn corrupted(&self, key: &str) -> Expected {
        let mut e = self.clone();
        let words = e.map.get_mut(key).expect("corrupted key exists");
        words[0] ^= 1;
        e
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }
}

/// Running attempted/failed counts, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or mismatched.
    pub failed: u64,
    /// First failure reasons (capped).
    pub reasons: Vec<String>,
    /// The first successful output words seen per key.
    first: BTreeMap<String, Vec<u64>>,
}

impl Tally {
    /// Checks a pass's ops against `expected` at `seed`, and against the
    /// first successful op with the same key.
    pub fn check(&mut self, ops: &[Op], expected: &Expected, seed: u64) {
        for op in ops {
            self.attempted += 1;
            let why = if let Some(e) = &op.error {
                Some(e.clone())
            } else if let Some(w) = self.first.get(&op.key).filter(|w| **w != op.words) {
                Some(format!(
                    "earlier pass gave {} now {}",
                    hex(w),
                    hex(&op.words)
                ))
            } else if expected.applies(&op.key, seed) {
                match expected.map.get(&op.key) {
                    None => Some("no expected value recorded".to_string()),
                    Some(w) if *w != op.words => {
                        Some(format!("expected {} got {}", hex(w), hex(&op.words)))
                    }
                    Some(_) => None,
                }
            } else {
                None
            };
            if op.error.is_none() && !self.first.contains_key(&op.key) {
                self.first.insert(op.key.clone(), op.words.clone());
            }
            if let Some(why) = why {
                self.failed += 1;
                if self.reasons.len() < 10 {
                    self.reasons.push(format!("{}: {why}", op.key));
                }
            }
        }
    }

    /// Counts `n` operations lost to a panic.
    pub fn lost(&mut self, n: u64, why: &str) {
        self.attempted += n;
        self.failed += n;
        if self.reasons.len() < 10 {
            self.reasons.push(format!("pass panicked: {why}"));
        }
    }
}

fn hex(words: &[u64]) -> String {
    words
        .iter()
        .map(|w| format!("{w:016x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// FNV-1a over 64-bit words: the digest stored for ops whose outputs
/// are too many to list.
pub fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
