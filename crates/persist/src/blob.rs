//! Content-verified file store for compiled artifacts.
//!
//! Each entry is one file in the store directory:
//!
//! ```text
//! B1 <payload-len> <crc:016x>\n
//! <payload bytes, verbatim>
//! ```
//!
//! Writes use the classic crash-safe protocol: the full file is
//! written to `<name>.tmp`, then atomically renamed over `<name>`.
//! A crash before the rename leaves only a `.tmp` (ignored by reads,
//! swept by fsck); a crash after leaves a complete, verified entry —
//! readers can never observe a half-written artifact through the
//! final name, except via the simulated `torn-write` fault below.
//!
//! Reads verify the header length and checksum and treat any mismatch
//! as absence: the entry is evicted on the spot and the caller
//! recompiles, exactly the contract `ArtifactCache`'s generation
//! machinery already has for in-memory corruption.
//!
//! The `torn-write` chaos site (keyed `cache-file:<name>`) models the
//! one failure rename cannot rule out: metadata reordering landing a
//! partial payload under the final name. When it fires, a torn entry
//! is written *directly* to the final path and the process dies, so
//! the read-side verification and eviction path is exercised for
//! real.

use std::io::{self, Write};
use std::path::{Path, PathBuf};

use paccport_faults as faults;
use paccport_trace::hash::{fnv1a64, FNV_BASIS};

const MAGIC: &str = "B1";
const TMP_SUFFIX: &str = ".tmp";

fn render(payload: &str) -> String {
    format!(
        "{MAGIC} {} {:016x}\n{payload}",
        payload.len(),
        fnv1a64(payload.as_bytes(), FNV_BASIS)
    )
}

/// Parse + verify an entry file's bytes; `None` = torn or corrupt.
fn parse(content: &str) -> Option<String> {
    let (header, payload) = content.split_once('\n')?;
    let mut parts = header.split(' ');
    if parts.next()? != MAGIC {
        return None;
    }
    let len: usize = parts.next()?.parse().ok()?;
    let crc_tok = parts.next()?;
    if crc_tok.len() != 16 || parts.next().is_some() {
        return None;
    }
    let crc = u64::from_str_radix(crc_tok, 16).ok()?;
    if payload.len() != len || fnv1a64(payload.as_bytes(), FNV_BASIS) != crc {
        return None;
    }
    Some(payload.to_string())
}

/// What [`BlobStore::fsck`] found and fixed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlobFsck {
    /// Entries that verified clean.
    pub entries: usize,
    /// Corrupt entries removed, by name (sorted).
    pub evicted: Vec<String>,
    /// Leftover `.tmp` files from interrupted writes, removed.
    pub temp_files_removed: usize,
}

/// A directory of checksummed artifact entries. Handles are cheap and
/// safe to share; every operation is a self-contained filesystem
/// transaction.
pub struct BlobStore {
    dir: PathBuf,
}

impl BlobStore {
    /// Open (creating if needed) the store directory.
    pub fn open(dir: &Path) -> io::Result<BlobStore> {
        std::fs::create_dir_all(dir)?;
        Ok(BlobStore {
            dir: dir.to_path_buf(),
        })
    }

    fn path_of(&self, name: &str) -> PathBuf {
        debug_assert!(
            !name.is_empty()
                && !name.ends_with(TMP_SUFFIX)
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c)),
            "entry name `{name}` is not filesystem-safe"
        );
        self.dir.join(name)
    }

    /// Store `payload` under `name`: write-temp → atomic-rename, with
    /// the `torn-write` chaos site in between (see module docs).
    pub fn put(&self, name: &str, payload: &str) -> io::Result<()> {
        let final_path = self.path_of(name);
        if faults::active() {
            let key = format!("cache-file:{name}");
            if !faults::already_injected(faults::FaultKind::TornWrite, &key)
                && faults::inject(faults::FaultKind::TornWrite, &key)
            {
                // Event is in the sink (durable if journaled). Land a
                // torn entry under the *final* name and die.
                let full = render(payload);
                let cut = full.len() * 2 / 3;
                let _ = std::fs::write(&final_path, &full.as_bytes()[..cut]);
                faults::crash_exit(&key);
            }
        }
        let tmp_path = self.dir.join(format!("{name}{TMP_SUFFIX}"));
        {
            let mut f = std::fs::File::create(&tmp_path)?;
            f.write_all(render(payload).as_bytes())?;
            f.flush()?;
        }
        std::fs::rename(&tmp_path, &final_path)
    }

    /// Fetch + verify `name`. A missing entry is `None`; a torn or
    /// corrupt entry is evicted on the spot (counted in
    /// `disk_cache_evict_total`) and also reads as `None`.
    pub fn get(&self, name: &str) -> Option<String> {
        let path = self.path_of(name);
        let content = std::fs::read_to_string(&path).ok()?;
        match parse(&content) {
            Some(payload) => Some(payload),
            None => {
                let _ = std::fs::remove_file(&path);
                paccport_trace::metrics::counter_add("disk_cache_evict_total", &[], 1);
                None
            }
        }
    }

    /// Remove `name` if present.
    pub fn evict(&self, name: &str) {
        let _ = std::fs::remove_file(self.path_of(name));
    }

    /// Verify every entry, remove the corrupt ones and any leftover
    /// `.tmp` files. Intact entries are untouched.
    pub fn fsck(&self) -> io::Result<BlobFsck> {
        let mut report = BlobFsck::default();
        let mut names: Vec<(String, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            names.push((name, entry.path()));
        }
        names.sort();
        for (name, path) in names {
            if name.ends_with(TMP_SUFFIX) {
                std::fs::remove_file(&path)?;
                report.temp_files_removed += 1;
                continue;
            }
            let ok = std::fs::read_to_string(&path)
                .ok()
                .as_deref()
                .and_then(parse)
                .is_some();
            if ok {
                report.entries += 1;
            } else {
                std::fs::remove_file(&path)?;
                paccport_trace::metrics::counter_add("disk_cache_evict_total", &[], 1);
                report.evicted.push(name);
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(name: &str) -> BlobStore {
        let d = std::env::temp_dir().join(format!("paccport-blob-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        BlobStore::open(&d).unwrap()
    }

    #[test]
    fn put_get_round_trips_arbitrary_payloads() {
        let s = store("roundtrip");
        for (name, payload) in [
            ("empty", ""),
            ("plain", "hello"),
            ("multiline", "line one\nline two\n\ttabbed"),
            ("binaryish", "J1 0 deadbeef spoofed header\nB1 9 junk"),
        ] {
            s.put(name, payload).unwrap();
            assert_eq!(s.get(name).as_deref(), Some(payload), "{name}");
        }
        assert_eq!(s.get("never-stored"), None);
    }

    #[test]
    fn overwrite_replaces_atomically() {
        let s = store("overwrite");
        s.put("k", "first").unwrap();
        s.put("k", "second, longer payload").unwrap();
        assert_eq!(s.get("k").as_deref(), Some("second, longer payload"));
    }

    #[test]
    fn every_truncation_point_reads_as_absent_and_evicts() {
        let s = store("truncate");
        s.put("k", "some artifact payload").unwrap();
        let full = std::fs::read(s.path_of("k")).unwrap();
        for cut in 0..full.len() {
            std::fs::write(s.path_of("k"), &full[..cut]).unwrap();
            assert_eq!(s.get("k"), None, "cut at {cut} must not verify");
            assert!(!s.path_of("k").exists(), "cut at {cut} must evict");
            std::fs::write(s.path_of("k"), &full).unwrap();
        }
        // The intact file still verifies after all that.
        assert_eq!(s.get("k").as_deref(), Some("some artifact payload"));
    }

    #[test]
    fn garbled_byte_reads_as_absent() {
        let s = store("garble");
        s.put("k", "some artifact payload").unwrap();
        let full = std::fs::read(s.path_of("k")).unwrap();
        for pos in 0..full.len() {
            let mut bytes = full.clone();
            bytes[pos] ^= 0x01; // stays valid UTF-8 for ASCII content
            std::fs::write(s.path_of("k"), &bytes).unwrap();
            assert_eq!(s.get("k"), None, "garble at {pos} must not verify");
        }
    }

    #[test]
    fn fsck_sweeps_temp_files_and_corrupt_entries() {
        let s = store("fsck");
        s.put("good", "intact").unwrap();
        s.put("bad", "will corrupt").unwrap();
        let bad = s.path_of("bad");
        let mut bytes = std::fs::read(&bad).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&bad, bytes).unwrap();
        std::fs::write(s.dir.join("orphan.tmp"), "half a write").unwrap();

        let r = s.fsck().unwrap();
        assert_eq!(r.entries, 1);
        assert_eq!(r.evicted, vec!["bad".to_string()]);
        assert_eq!(r.temp_files_removed, 1);
        assert_eq!(s.get("good").as_deref(), Some("intact"));
        assert_eq!(
            s.fsck().unwrap(),
            BlobFsck {
                entries: 1,
                ..Default::default()
            }
        );
    }
}
