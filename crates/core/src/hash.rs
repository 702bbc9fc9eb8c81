//! Content addressing of protocol specs: a canonical, parse-tree-based
//! hash that is invariant under everything that cannot change a verdict.
//!
//! The service layer (`selfstab serve`) memoizes verification results by
//! spec identity, so two requests that *mean* the same protocol must map
//! to the same cache line no matter how their `.stab` sources are spelled.
//! Hashing the raw bytes would miss almost every real repeat — reformatted
//! whitespace, added comments, reordered `action` lines, commuted guard
//! operands. [`spec_hash`] therefore hashes the **parsed semantics**
//! instead of the text:
//!
//! * the protocol name (result documents embed it);
//! * the domain: variable name and value labels in declaration order
//!   (label order *is* semantic — it defines the value encoding that
//!   witness states are rendered in);
//! * the locality offsets `(left, right)`;
//! * the legitimate-state predicate **extensionally**: the sorted set of
//!   legitimate local-window ids, not the predicate's source text — so
//!   `x[r] == x[r-1]` and `x[r-1] == x[r]` collapse;
//! * the transition relation `δ_r` as the sorted set of
//!   `(source window, written value)` pairs — so action order, guard
//!   spelling and split/merged actions all collapse.
//!
//! Anything that *can* change a verdict or a rendered witness (domain
//! size, label spelling, the relation itself) feeds the hash; anything
//! that cannot (whitespace, comments, declaration order) never reaches it
//! because the parser already erased it.
//!
//! The digest is 128-bit FNV-1a over an injectively framed byte encoding
//! (every field is length- or tag-delimited, so concatenation ambiguities
//! cannot alias two different protocols). FNV is not cryptographic — the
//! cache is a memo, not a trust boundary — but 128 bits make accidental
//! collisions across a corpus astronomically unlikely, and the collision
//! smoke tests below pin the corpus pairwise-distinct.

use std::fmt;

use selfstab_protocol::Protocol;

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// 64-bit FNV-1a offset basis.
const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte stream: the workspace's small no-dependency
/// hash for seeded decisions and fingerprints (chaos plans, the campaign
/// manifest fingerprint). Spec identity uses the 128-bit [`spec_hash`].
pub fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(FNV64_OFFSET, |h, b| {
        (h ^ b as u64).wrapping_mul(FNV64_PRIME)
    })
}

/// [`fnv64`] over a word sequence, each word as its little-endian bytes.
pub fn fnv64_words(words: &[u64]) -> u64 {
    fnv64(words.iter().flat_map(|w| w.to_le_bytes()))
}

/// A canonical 128-bit content hash of a protocol spec.
///
/// Obtained from [`spec_hash`]; renders as 32 lowercase hex digits.
/// Equal hashes mean "the same protocol up to spelling" (same name,
/// domain, locality, legitimate windows, transition relation), which is
/// exactly the equivalence under which every verification document is
/// byte-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpecHash(pub u128);

impl fmt::Display for SpecHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// An incremental FNV-1a-128 sink with injective framing helpers.
struct Fnv(u128);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// A length-prefixed string: no two different string sequences can
    /// produce the same byte stream.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The canonical content hash of `protocol`. See the module docs for what
/// the hash covers and what it deliberately ignores.
pub fn spec_hash(protocol: &Protocol) -> SpecHash {
    let mut h = Fnv::new();
    h.str(protocol.name());

    let domain = protocol.domain();
    h.str(domain.variable());
    h.u64(domain.size() as u64);
    for v in domain.values() {
        h.str(domain.label(v));
    }

    let locality = protocol.locality();
    h.u64(locality.left() as u64);
    h.u64(locality.right() as u64);

    // The legitimate predicate, extensionally: sorted window ids.
    let mut legit: Vec<u32> = protocol.legit().states().map(|id| id.0).collect();
    legit.sort_unstable();
    h.u64(legit.len() as u64);
    for id in legit {
        h.u64(id as u64);
    }

    // The transition relation, sorted. `Protocol` stores `δ_r` as a
    // `BTreeSet`, so iteration is already canonical; sorting again here
    // keeps the hash correct even if that representation ever changes.
    let mut delta: Vec<(u32, u8)> = protocol
        .transitions()
        .map(|t| (t.source.0, t.target))
        .collect();
    delta.sort_unstable();
    h.u64(delta.len() as u64);
    for (source, target) in delta {
        h.u64(source as u64);
        h.u64(target as u64);
    }

    SpecHash(h.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_protocol::file::parse_protocol_file;
    use std::path::Path;

    fn hash_of(source: &str) -> SpecHash {
        spec_hash(&parse_protocol_file(source).expect("test spec parses"))
    }

    const SUM_NOT_TWO: &str = "
protocol sum-not-two
domain x { 0 1 2 }
locality unidirectional
legit x[r] + x[r-1] != 2
action (x[r] + x[r-1] == 2) && (x[r] != 2) -> x[r] := (x[r] + 1) % 3
action (x[r] + x[r-1] == 2) && (x[r] == 2) -> x[r] := (x[r] - 1) % 3
";

    #[test]
    fn whitespace_and_comments_do_not_perturb_the_hash() {
        let noisy = "
# a comment          \t
protocol sum-not-two


domain   x   {  0   1 2 }   # trailing comment
locality     unidirectional
legit    x[r] + x[r-1] != 2
action (x[r] + x[r-1] == 2) && (x[r] != 2) -> x[r] := (x[r] + 1) % 3
# interleaved comment
action (x[r] + x[r-1] == 2) && (x[r] == 2) -> x[r] := (x[r] - 1) % 3
";
        assert_eq!(hash_of(SUM_NOT_TWO), hash_of(noisy));
    }

    #[test]
    fn declaration_and_action_order_do_not_perturb_the_hash() {
        let reordered = "
action (x[r] + x[r-1] == 2) && (x[r] == 2) -> x[r] := (x[r] - 1) % 3
action (x[r] + x[r-1] == 2) && (x[r] != 2) -> x[r] := (x[r] + 1) % 3
legit x[r] + x[r-1] != 2
locality unidirectional
domain x { 0 1 2 }
protocol sum-not-two
";
        assert_eq!(hash_of(SUM_NOT_TWO), hash_of(reordered));
    }

    #[test]
    fn guard_spelling_does_not_perturb_the_hash() {
        // Commuted conjuncts and commuted equality operands denote the
        // same guard, hence the same transition set, hence the same hash.
        let a = "
protocol ag
domain x { 0 1 }
locality unidirectional
legit x[r] == x[r-1]
action x[r-1] == 1 && x[r] == 0 -> x[r] := 1
";
        let b = "
protocol ag
domain x { 0 1 }
locality unidirectional
legit x[r-1] == x[r]
action (0 == x[r]) && (1 == x[r-1]) -> x[r] := 1
";
        assert_eq!(hash_of(a), hash_of(b));
    }

    #[test]
    fn semantic_differences_do_perturb_the_hash() {
        let base = hash_of(SUM_NOT_TWO);
        // Different name.
        let renamed = SUM_NOT_TWO.replace("protocol sum-not-two", "protocol sum-not-2");
        assert_ne!(base, hash_of(&renamed));
        // Different legitimate predicate.
        let other_legit = SUM_NOT_TWO.replace("!= 2", "!= 3");
        assert_ne!(base, hash_of(&other_legit));
        // One action dropped: a strictly smaller transition relation.
        let truncated: String = SUM_NOT_TWO
            .lines()
            .filter(|l| !l.contains("x[r] == 2"))
            .collect::<Vec<_>>()
            .join("\n");
        assert_ne!(base, hash_of(&truncated));
    }

    #[test]
    fn label_order_is_semantic_and_perturbs_the_hash() {
        // `{ 0 1 2 }` and `{ 2 1 0 }` encode values differently, so
        // rendered witness states differ — the hashes must too.
        let swapped = SUM_NOT_TWO.replace("{ 0 1 2 }", "{ 2 1 0 }");
        assert_ne!(hash_of(SUM_NOT_TWO), hash_of(&swapped));
    }

    #[test]
    fn corpus_specs_never_collide() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
        let mut hashes: Vec<(String, SpecHash)> = Vec::new();
        for entry in std::fs::read_dir(&dir).expect("spec corpus directory") {
            let path = entry.expect("corpus entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("stab") {
                continue;
            }
            let source = std::fs::read_to_string(&path).expect("corpus spec readable");
            let protocol = parse_protocol_file(&source).expect("corpus spec parses");
            hashes.push((path.display().to_string(), spec_hash(&protocol)));
        }
        assert!(hashes.len() >= 10, "expected the corpus, got {hashes:?}");
        for i in 0..hashes.len() {
            for j in (i + 1)..hashes.len() {
                assert_ne!(
                    hashes[i].1, hashes[j].1,
                    "collision between {} and {}",
                    hashes[i].0, hashes[j].0
                );
            }
        }
    }

    #[test]
    fn fnv64_matches_the_published_vectors() {
        assert_eq!(fnv64([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(*b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv64_words(&[0x006f_6f66]), fnv64(*b"foo\0\0\0\0\0"));
    }

    #[test]
    fn hash_renders_as_32_hex_digits() {
        let h = hash_of(SUM_NOT_TWO);
        let text = h.to_string();
        assert_eq!(text.len(), 32);
        assert!(text.chars().all(|c| c.is_ascii_hexdigit()));
        // And is stable across calls (pure function of the parse tree).
        assert_eq!(text, hash_of(SUM_NOT_TWO).to_string());
    }
}
