//! The content-addressed result cache: canonical campaign key →
//! completed `RunArtifact` JSON.
//!
//! Keys are the [`CampaignSpec::canonical`] string hashed with
//! hand-rolled 64-bit FNV-1a. Because a hash can collide, every bucket
//! stores the full canonical string and lookups compare it — a
//! collision costs a miss-then-second-entry, never a wrong artifact.
//! Eviction is least-recently-used under a fixed entry cap, and the
//! whole cache can spill to / reload from a JSONL file so a restarted
//! daemon keeps its history. Since `obs::json` serialization is
//! byte-deterministic, a cache hit replays the artifact bit-identically
//! to the run that produced it.
//!
//! An entry may also hold the admission diagnostics of its spec, for
//! one effective deadline, so a hit answers without elaborating the
//! design again. The diagnostics are a pure function of the canonical
//! spec and the deadline, and they are never spilled: an entry
//! reloaded from a spill file lints again on its first hit.
//!
//! [`CampaignSpec::canonical`]: bist_core::campaign::CampaignSpec::canonical

use obs::{Diagnostic, JsonValue};
use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::sync::Arc;

/// The FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

struct Entry {
    canonical: String,
    artifact: Arc<JsonValue>,
    /// The admission diagnostics and the effective deadline they were
    /// computed for; `None` until the entry's first linted hit.
    admission: Option<(Option<u64>, Arc<[Diagnostic]>)>,
    last_used: u64,
}

/// The in-memory LRU cache. Not internally synchronized — the daemon
/// wraps it in a `Mutex`.
pub struct ResultCache {
    buckets: HashMap<u64, Vec<Entry>>,
    capacity: usize,
    len: usize,
    clock: u64,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` artifacts.
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache { buckets: HashMap::new(), capacity, len: 0, clock: 0 }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up the artifact for a canonical key, refreshing its LRU
    /// position on a hit. The artifact is shared, not copied: every
    /// job served from one entry holds the same allocation.
    pub fn get(&mut self, canonical: &str) -> Option<Arc<JsonValue>> {
        self.clock += 1;
        let clock = self.clock;
        let entry = self.entry_mut(canonical)?;
        entry.last_used = clock;
        Some(Arc::clone(&entry.artifact))
    }

    fn entry_mut(&mut self, canonical: &str) -> Option<&mut Entry> {
        let bucket = self.buckets.get_mut(&fnv1a(canonical.as_bytes()))?;
        bucket.iter_mut().find(|e| e.canonical == canonical)
    }

    /// The admission diagnostics stored with a cached key, if they were
    /// computed for `deadline_ms`. Does not refresh the LRU position:
    /// the caller decides whether the request is served.
    pub fn admission(
        &mut self,
        canonical: &str,
        deadline_ms: Option<u64>,
    ) -> Option<Arc<[Diagnostic]>> {
        match &self.entry_mut(canonical)?.admission {
            Some((deadline, lint)) if *deadline == deadline_ms => Some(Arc::clone(lint)),
            _ => None,
        }
    }

    /// Stores a key's admission diagnostics for `deadline_ms`, replacing
    /// any computed for another deadline. A no-op for an uncached key;
    /// does not refresh the LRU position.
    pub fn set_admission(
        &mut self,
        canonical: &str,
        deadline_ms: Option<u64>,
        lint: Arc<[Diagnostic]>,
    ) {
        if let Some(entry) = self.entry_mut(canonical) {
            entry.admission = Some((deadline_ms, lint));
        }
    }

    /// Stores (or refreshes) an artifact, evicting the least recently
    /// used entry if the cache is at capacity. A zero-capacity cache
    /// stores nothing. Refreshing keeps the entry's admission
    /// diagnostics, which depend on the key alone.
    pub fn insert(&mut self, canonical: &str, artifact: impl Into<Arc<JsonValue>>) {
        if self.capacity == 0 {
            return;
        }
        let artifact = artifact.into();
        self.clock += 1;
        let clock = self.clock;
        let hash = fnv1a(canonical.as_bytes());
        let bucket = self.buckets.entry(hash).or_default();
        if let Some(entry) = bucket.iter_mut().find(|e| e.canonical == canonical) {
            entry.artifact = artifact;
            entry.last_used = clock;
            return;
        }
        if self.len >= self.capacity {
            self.evict_lru();
        }
        self.buckets.entry(hash).or_default().push(Entry {
            canonical: canonical.to_string(),
            artifact,
            admission: None,
            last_used: clock,
        });
        self.len += 1;
    }

    fn evict_lru(&mut self) {
        let victim = self
            .buckets
            .iter()
            .flat_map(|(hash, bucket)| bucket.iter().map(move |e| (*hash, e.last_used)))
            .min_by_key(|(_, last_used)| *last_used);
        let Some((hash, last_used)) = victim else {
            return;
        };
        let bucket = self.buckets.get_mut(&hash).expect("victim bucket exists");
        let index =
            bucket.iter().position(|e| e.last_used == last_used).expect("victim entry exists");
        bucket.swap_remove(index);
        if bucket.is_empty() {
            self.buckets.remove(&hash);
        }
        self.len -= 1;
    }

    /// Writes every entry as one JSONL line
    /// (`{"key":"<hex>","canonical":"...","artifact":{...}}`),
    /// most-recently-used last, and returns how many were written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn spill(&self, writer: &mut impl Write) -> io::Result<usize> {
        let mut entries: Vec<&Entry> = self.buckets.values().flatten().collect();
        entries.sort_by_key(|e| e.last_used);
        for entry in &entries {
            let line = JsonValue::object()
                .push("key", format!("{:016x}", fnv1a(entry.canonical.as_bytes())))
                .push("canonical", entry.canonical.as_str())
                .push("artifact", JsonValue::clone(&entry.artifact));
            writeln!(writer, "{}", line.to_json())?;
        }
        writer.flush()?;
        Ok(entries.len())
    }

    /// Reloads entries from a spill stream, inserting in file order (so
    /// the last line is the most recently used). Malformed lines and
    /// lines whose recomputed key disagrees with the recorded one are
    /// skipped, never fatal; returns `(loaded, skipped)`.
    pub fn load(&mut self, reader: impl BufRead) -> (usize, usize) {
        let (mut loaded, mut skipped) = (0, 0);
        for line in reader.lines() {
            let Ok(line) = line else {
                skipped += 1;
                continue;
            };
            if line.trim().is_empty() {
                continue;
            }
            match parse_spill_line(&line) {
                Some((canonical, artifact)) => {
                    self.insert(&canonical, artifact);
                    loaded += 1;
                }
                None => skipped += 1,
            }
        }
        (loaded, skipped)
    }
}

fn parse_spill_line(line: &str) -> Option<(String, JsonValue)> {
    let v = JsonValue::parse(line).ok()?;
    let canonical = v.get("canonical")?.as_str()?.to_string();
    let recorded_key = v.get("key")?.as_str()?;
    if recorded_key != format!("{:016x}", fnv1a(canonical.as_bytes())) {
        return None;
    }
    let artifact = v.get("artifact")?.clone();
    Some((canonical, artifact))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(tag: u64) -> JsonValue {
        JsonValue::object().push("schema", 1u64).push("tag", tag)
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published 64-bit FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hits_are_exact_and_misses_are_misses() {
        let mut cache = ResultCache::new(8);
        assert!(cache.get("k1").is_none());
        cache.insert("k1", artifact(1));
        assert_eq!(cache.get("k1").as_deref(), Some(&artifact(1)));
        assert!(cache.get("k2").is_none(), "different canonical, different entry");
        // Re-insert overwrites in place.
        cache.insert("k1", artifact(2));
        assert_eq!(cache.get("k1").as_deref(), Some(&artifact(2)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut cache = ResultCache::new(3);
        cache.insert("a", artifact(1));
        cache.insert("b", artifact(2));
        cache.insert("c", artifact(3));
        // Touch "a" so "b" is the LRU entry.
        assert!(cache.get("a").is_some());
        cache.insert("d", artifact(4));
        assert_eq!(cache.len(), 3);
        assert!(cache.get("b").is_none(), "LRU entry evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert!(cache.get("d").is_some());
    }

    fn diagnostics(code: &str) -> Arc<[Diagnostic]> {
        Arc::new([Diagnostic::new(code, obs::Severity::Warn, obs::Location::Design, "note")])
    }

    #[test]
    fn admission_slot_holds_one_deadline_and_outlives_refreshes() {
        let mut cache = ResultCache::new(8);
        cache.set_admission("k", None, diagnostics("L101"));
        assert!(cache.admission("k", None).is_none(), "an uncached key stores nothing");
        cache.insert("k", artifact(1));
        assert!(cache.admission("k", None).is_none(), "a fresh entry has an empty slot");
        let stored = diagnostics("L101");
        cache.set_admission("k", None, Arc::clone(&stored));
        let reused = cache.admission("k", None).unwrap();
        assert!(Arc::ptr_eq(&reused, &stored), "a hit shares the stored allocation");
        assert!(cache.admission("k", Some(5)).is_none(), "another deadline misses the slot");
        cache.set_admission("k", Some(5), diagnostics("L303"));
        assert_eq!(cache.admission("k", Some(5)).unwrap()[0].code, "L303");
        assert!(cache.admission("k", None).is_none(), "one slot: the new deadline replaced it");
        cache.insert("k", artifact(2));
        assert!(cache.admission("k", Some(5)).is_some(), "a refreshed artifact keeps its slot");
    }

    #[test]
    fn admission_lookups_do_not_refresh_recency() {
        let mut cache = ResultCache::new(2);
        cache.insert("a", artifact(1));
        cache.insert("b", artifact(2));
        cache.set_admission("a", None, diagnostics("L101"));
        assert!(cache.admission("a", None).is_some());
        cache.insert("c", artifact(3));
        assert!(cache.get("a").is_none(), "\"a\" stayed the LRU entry");
        assert!(cache.admission("a", None).is_none(), "eviction drops the slot");
    }

    #[test]
    fn admission_slots_are_not_spilled() {
        let mut cache = ResultCache::new(8);
        cache.insert("k", artifact(1));
        let mut bare = Vec::new();
        cache.spill(&mut bare).unwrap();
        cache.set_admission("k", None, diagnostics("L101"));
        let mut spilled = Vec::new();
        cache.spill(&mut spilled).unwrap();
        assert_eq!(spilled, bare, "the spill format does not change");
        let mut reloaded = ResultCache::new(8);
        reloaded.load(&spilled[..]);
        assert!(reloaded.get("k").is_some());
        assert!(reloaded.admission("k", None).is_none(), "a reloaded entry lints again");
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut cache = ResultCache::new(0);
        cache.insert("a", artifact(1));
        assert!(cache.is_empty());
        assert!(cache.get("a").is_none());
    }

    #[test]
    fn spill_and_load_round_trip_bit_identically() {
        let mut cache = ResultCache::new(8);
        cache.insert("design=LP;vectors=64", artifact(1));
        cache.insert("design=HP;vectors=64", artifact(2));
        let mut spilled = Vec::new();
        assert_eq!(cache.spill(&mut spilled).unwrap(), 2);

        let mut reloaded = ResultCache::new(8);
        let (loaded, skipped) = reloaded.load(&spilled[..]);
        assert_eq!((loaded, skipped), (2, 0));
        // Bit-identical artifacts after the round trip.
        assert_eq!(reloaded.get("design=LP;vectors=64").unwrap().to_json(), artifact(1).to_json());
        assert_eq!(reloaded.get("design=HP;vectors=64").unwrap().to_json(), artifact(2).to_json());
    }

    #[test]
    fn load_skips_malformed_and_tampered_lines() {
        let mut cache = ResultCache::new(8);
        cache.insert("good", artifact(1));
        let mut spilled = Vec::new();
        cache.spill(&mut spilled).unwrap();
        let good_line = String::from_utf8(spilled).unwrap();
        let tampered = good_line.replace("\"canonical\":\"good\"", "\"canonical\":\"evil\"");
        let input = format!("{{not json\n\n{tampered}{good_line}{{\"key\":\"nope\"}}\n");
        let mut reloaded = ResultCache::new(8);
        let (loaded, skipped) = reloaded.load(input.as_bytes());
        assert_eq!(loaded, 1, "only the intact line loads");
        assert_eq!(skipped, 3);
        assert!(reloaded.get("good").is_some());
        assert!(reloaded.get("evil").is_none(), "key mismatch rejected");
    }

    #[test]
    fn load_preserves_recency_order() {
        let mut cache = ResultCache::new(8);
        cache.insert("old", artifact(1));
        cache.insert("mid", artifact(2));
        cache.insert("new", artifact(3));
        let mut spilled = Vec::new();
        cache.spill(&mut spilled).unwrap();
        // Reload into a cache of 2: the two most recent survive.
        let mut reloaded = ResultCache::new(2);
        reloaded.load(&spilled[..]);
        assert!(reloaded.get("old").is_none());
        assert!(reloaded.get("mid").is_some());
        assert!(reloaded.get("new").is_some());
    }
}
