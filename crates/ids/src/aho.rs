//! A from-scratch Aho–Corasick multi-pattern matcher.
//!
//! The signature engine must scan every payload byte against the whole rule
//! database at line rate — the *System Throughput* and *Maximal Throughput
//! with Zero Loss* metrics are dominated by this scan. Aho–Corasick gives
//! O(payload + matches) per packet independent of pattern count, which is
//! why it (and its descendants) power real signature IDSes. A naive
//! per-rule scan is kept in `idse-bench` as the ablation baseline.
//!
//! The automaton is the classic goto/fail construction with an explicit
//! 256-way dense transition table per node, built breadth-first, with
//! output lists merged along failure links.

/// One-off substring search for tiny needles; used by stateful detectors
/// that key on a single literal (the compiled automaton handles the bulk
/// rule database). It skips ahead to each occurrence of the needle's first
/// byte ([`find_byte`]) and compares only there.
pub fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    let Some((&first, rest)) = needle.split_first() else {
        return true;
    };
    let Some(last_start) = haystack.len().checked_sub(needle.len()) else {
        return false;
    };
    let mut from = 0;
    while let Some(i) = find_byte(first, &haystack[from..=last_start]) {
        let at = from + i;
        if haystack[at + 1..].starts_with(rest) {
            return true;
        }
        from = at + 1;
    }
    false
}

/// The index of the first `byte` in `hay`, testing eight bytes per step
/// (a word has a zero byte iff `(x − 0x01…) & !x & 0x80…` is non-zero).
fn find_byte(byte: u8, hay: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let pattern = ONES * u64::from(byte);
    let mut words = hay.chunks_exact(8);
    let mut offset = 0;
    for word in &mut words {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(word);
        let x = u64::from_le_bytes(bytes) ^ pattern;
        if x.wrapping_sub(ONES) & !x & HIGHS != 0 {
            return word.iter().position(|&b| b == byte).map(|i| offset + i);
        }
        offset += 8;
    }
    words.remainder().iter().position(|&b| b == byte).map(|i| offset + i)
}

/// A compiled multi-pattern automaton. Pattern ids are the indices of the
/// patterns passed to [`AhoCorasick::new`].
///
/// ```
/// use idse_ids::aho::AhoCorasick;
/// let ac = AhoCorasick::new(&[b"/bin/sh".as_slice(), b"\x90\x90\x90\x90"]);
/// assert_eq!(ac.matching_patterns(b"exec /bin/sh now"), vec![0]);
/// assert!(ac.find_first(b"clean payload").is_none());
/// ```
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// Dense next-state table: `next[state * 256 + byte]`.
    next: Vec<u32>,
    /// Pattern ids that end at each state (merged via failure links).
    outputs: Vec<Vec<u32>>,
    pattern_count: usize,
}

/// A single match occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Which pattern matched (index into the constructor's list).
    pub pattern: u32,
    /// Byte offset one past the match's last byte.
    pub end: usize,
}

impl AhoCorasick {
    /// Build the automaton over the given patterns. Empty patterns are
    /// rejected (they would match everywhere).
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> Self {
        assert!(patterns.iter().all(|p| !p.as_ref().is_empty()), "empty patterns are not allowed");
        // Trie construction. goto_[node][byte] = child or u32::MAX.
        let mut goto_: Vec<[u32; 256]> = vec![[u32::MAX; 256]];
        let mut out: Vec<Vec<u32>> = vec![Vec::new()];
        for (id, p) in patterns.iter().enumerate() {
            let mut s = 0usize;
            for &b in p.as_ref() {
                let t = goto_[s][b as usize];
                s = if t == u32::MAX {
                    goto_.push([u32::MAX; 256]);
                    out.push(Vec::new());
                    let new = (goto_.len() - 1) as u32;
                    goto_[s][b as usize] = new;
                    new as usize
                } else {
                    t as usize
                };
            }
            out[s].push(id as u32);
        }

        // BFS failure computation, flattening into a dense delta table.
        let n = goto_.len();
        let mut fail = vec![0u32; n];
        let mut next = vec![0u32; n * 256];
        let mut queue = std::collections::VecDeque::new();
        for b in 0..256 {
            let t = goto_[0][b];
            if t == u32::MAX {
                next[b] = 0;
            } else {
                next[b] = t;
                fail[t as usize] = 0;
                queue.push_back(t as usize);
            }
        }
        while let Some(s) = queue.pop_front() {
            let f = fail[s] as usize;
            // Merge outputs from the failure state.
            if !out[f].is_empty() {
                let merged: Vec<u32> = out[f].clone();
                out[s].extend(merged);
            }
            for b in 0..256 {
                let t = goto_[s][b];
                if t == u32::MAX {
                    next[s * 256 + b] = next[f * 256 + b];
                } else {
                    next[s * 256 + b] = t;
                    fail[t as usize] = next[f * 256 + b];
                    queue.push_back(t as usize);
                }
            }
        }

        Self { next, outputs: out, pattern_count: patterns.len() }
    }

    /// Number of patterns compiled in.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Number of automaton states (diagnostics / Data Storage metric).
    pub fn state_count(&self) -> usize {
        self.outputs.len()
    }

    /// Find all matches in `haystack`.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut matches = Vec::new();
        let mut s = 0usize;
        for (i, &b) in haystack.iter().enumerate() {
            s = self.next[s * 256 + b as usize] as usize;
            for &pid in &self.outputs[s] {
                matches.push(Match { pattern: pid, end: i + 1 });
            }
        }
        matches
    }

    /// Whether any pattern occurs in `haystack` (early exit).
    pub fn find_first(&self, haystack: &[u8]) -> Option<Match> {
        let mut s = 0usize;
        for (i, &b) in haystack.iter().enumerate() {
            s = self.next[s * 256 + b as usize] as usize;
            if let Some(&pid) = self.outputs[s].first() {
                return Some(Match { pattern: pid, end: i + 1 });
            }
        }
        None
    }

    /// The distinct pattern ids occurring in `haystack`, sorted.
    ///
    /// Walks the automaton directly rather than going through
    /// [`find_all`](Self::find_all): the per-packet hot path needs only
    /// pattern ids, so building (and throwing away) a `Match` per
    /// occurrence would pay an extra allocation per packet.
    pub fn matching_patterns(&self, haystack: &[u8]) -> Vec<u32> {
        let mut ids: Vec<u32> = Vec::with_capacity(4);
        let mut s = 0usize;
        for &b in haystack {
            s = self.next[s * 256 + b as usize] as usize;
            ids.extend_from_slice(&self.outputs[s]);
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_simple_patterns() {
        let ac = AhoCorasick::new(&[b"he".as_slice(), b"she", b"his", b"hers"]);
        let found = ac.find_all(b"ushers");
        // "she" ends at 4, "he" ends at 4, "hers" ends at 6.
        let pats: Vec<u32> = found.iter().map(|m| m.pattern).collect();
        assert!(pats.contains(&0)); // he
        assert!(pats.contains(&1)); // she
        assert!(pats.contains(&3)); // hers
        assert!(!pats.contains(&2)); // his
    }

    #[test]
    fn overlapping_matches_all_reported() {
        let ac = AhoCorasick::new(&[b"aa".as_slice()]);
        let found = ac.find_all(b"aaaa");
        assert_eq!(found.len(), 3);
        assert_eq!(found[0].end, 2);
        assert_eq!(found[2].end, 4);
    }

    #[test]
    fn binary_patterns() {
        let ac = AhoCorasick::new(&[b"\x90\x90\x90\x90".as_slice(), b"/bin/sh"]);
        let hay = b"junk\x90\x90\x90\x90\x90shell=/bin/sh;";
        let ids = ac.matching_patterns(hay);
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn no_match_in_clean_text() {
        let ac = AhoCorasick::new(&[b"attack".as_slice(), b"\x90\x90"]);
        assert!(ac.find_first(b"perfectly normal http body").is_none());
        assert!(ac.find_all(b"").is_empty());
    }

    #[test]
    fn find_first_early_exit_matches_find_all() {
        let ac = AhoCorasick::new(&[b"abc".as_slice(), b"bcd"]);
        let hay = b"xxabcdxx";
        let first = ac.find_first(hay).unwrap();
        let all = ac.find_all(hay);
        assert_eq!(first, all[0]);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn pattern_that_is_prefix_of_another() {
        let ac = AhoCorasick::new(&[b"abc".as_slice(), b"abcdef"]);
        let all = ac.find_all(b"zzabcdefzz");
        let pats: Vec<u32> = all.iter().map(|m| m.pattern).collect();
        assert_eq!(pats, vec![0, 1]);
    }

    #[test]
    fn suffix_output_merging() {
        // "bc" must be reported even when reached while matching "abcd".
        let ac = AhoCorasick::new(&[b"abcd".as_slice(), b"bc"]);
        let all = ac.find_all(b"abcd");
        let pats: Vec<u32> = all.iter().map(|m| m.pattern).collect();
        assert!(pats.contains(&0));
        assert!(pats.contains(&1));
    }

    #[test]
    #[should_panic(expected = "empty patterns")]
    fn empty_pattern_rejected() {
        let _ = AhoCorasick::new(&[b"".as_slice()]);
    }

    #[test]
    fn exploit_corpus_compiles_and_matches() {
        // Realistic-scale rule set: a few dozen patterns.
        let patterns: Vec<Vec<u8>> =
            (0..50).map(|i| format!("exploit-pattern-{i:02}").into_bytes()).collect();
        let ac = AhoCorasick::new(&patterns);
        assert_eq!(ac.pattern_count(), 50);
        let hay = b"prefix exploit-pattern-31 suffix";
        assert_eq!(ac.matching_patterns(hay), vec![31]);
    }
}
