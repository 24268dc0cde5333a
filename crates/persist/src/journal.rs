//! Append-only run journal with per-record checksums and torn-tail
//! recovery.
//!
//! ## File format
//!
//! One record per line:
//!
//! ```text
//! J1 <seq> <crc:016x> <escaped-payload>\n
//! ```
//!
//! `seq` is the record's 0-based position in the file (so a record
//! spliced out of order is detected as corruption, not silently
//! accepted), `crc` is FNV-1a over `seq`+payload, and the payload is
//! [`crate::wire::escape`]d so it can never contain a record
//! separator. A record is durable once its full line (terminated
//! newline included) has reached the file.
//!
//! ## Recovery
//!
//! [`Journal::open`] scans from the start and stops at the first line
//! that fails to parse or verify — everything before it is the
//! durable prefix, everything from it on is a torn tail from a write
//! the process did not survive, and is truncated away. The result is
//! always a state the journal legitimately passed through: the
//! pre-write state of the interrupted append (or a prefix of it when
//! corruption landed earlier), never a third state.
//!
//! ## Chaos sites
//!
//! [`Journal::append`] hosts the two persist fault kinds:
//!
//! * `torn-write`, keyed `journal:rec-<hash of payload>` — writes a
//!   truncated prefix of the record, then dies. Keying by payload
//!   (not position) makes the tear at-most-once across process lives:
//!   the resumed run recomputes the same cell, re-appends the same
//!   payload, finds the fault already in the restored ledger, and
//!   this time the write goes through.
//! * `crash`, keyed `journal:step-<seq>` — dies *after* the record is
//!   durable. Rolled against the sequence number the record actually
//!   got; a resumed journal continues at the next sequence number, so
//!   the same step is never rolled twice.
//!
//! Both sites fire the fault *event* into the configured sink (which
//! the CLI points back at this very journal) before dying, so the
//! resumed run can rebuild an identical fault ledger.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

use paccport_faults as faults;
use paccport_trace::hash::{fnv1a64, FNV_BASIS};

use crate::wire;

const MAGIC: &str = "J1";

fn record_crc(seq: u64, payload: &str) -> u64 {
    fnv1a64(format!("{seq}\u{1f}{payload}").as_bytes(), FNV_BASIS)
}

fn render_record(seq: u64, payload: &str) -> String {
    format!(
        "{MAGIC} {seq} {:016x} {}\n",
        record_crc(seq, payload),
        wire::escape(payload)
    )
}

/// Parse one journal line (without trailing newline) expected at
/// position `seq`. `None` means the line is torn or corrupt.
fn parse_record(line: &str, seq: u64) -> Option<String> {
    let mut parts = line.splitn(4, ' ');
    if parts.next()? != MAGIC {
        return None;
    }
    let got_seq: u64 = parts.next()?.parse().ok()?;
    let crc_tok = parts.next()?;
    if crc_tok.len() != 16 {
        return None;
    }
    let got_crc = u64::from_str_radix(crc_tok, 16).ok()?;
    let payload = wire::unescape(parts.next()?).ok()?;
    if got_seq != seq || got_crc != record_crc(seq, &payload) {
        return None;
    }
    Some(payload)
}

struct Inner {
    file: File,
    next_seq: u64,
}

/// An open, append-positioned run journal. See the module docs for
/// the format and recovery protocol.
pub struct Journal {
    inner: Mutex<Inner>,
}

/// The result of [`Journal::open`]: the handle plus what the scan of
/// existing contents found.
pub struct JournalOpen {
    pub journal: Journal,
    /// Payloads of the intact records, in append order.
    pub records: Vec<String>,
    /// Bytes of torn tail truncated away (0 for a clean journal).
    pub truncated_bytes: u64,
}

impl Journal {
    /// Start a fresh journal at `path`, discarding any existing file.
    pub fn create(path: &Path) -> io::Result<Journal> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Journal {
            inner: Mutex::new(Inner { file, next_seq: 0 }),
        })
    }

    /// Open `path` (creating it if absent), verify every record, and
    /// truncate any torn tail so the file ends at the last durable
    /// record. Appends continue from there.
    pub fn open(path: &Path) -> io::Result<JournalOpen> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        // A crash can garble the tail into invalid UTF-8; that is
        // corruption to recover from, not an I/O error. Scan only the
        // longest valid prefix — the record checks below then stop at
        // (or before) the first damaged byte.
        let content = match std::str::from_utf8(&bytes) {
            Ok(s) => s,
            Err(e) => std::str::from_utf8(&bytes[..e.valid_up_to()]).unwrap(),
        };
        let mut records = Vec::new();
        let mut good_bytes = 0usize;
        for line in content.split_inclusive('\n') {
            let Some(body) = line.strip_suffix('\n') else {
                break; // unterminated final line: torn mid-write
            };
            let Some(payload) = parse_record(body, records.len() as u64) else {
                break;
            };
            records.push(payload);
            good_bytes += line.len();
        }
        let truncated_bytes = (bytes.len() - good_bytes) as u64;

        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        if truncated_bytes > 0 {
            file.set_len(good_bytes as u64)?;
        }
        let journal = Journal {
            inner: Mutex::new(Inner {
                file,
                next_seq: records.len() as u64,
            }),
        };
        Ok(JournalOpen {
            journal,
            records,
            truncated_bytes,
        })
    }

    /// Number of durable records (the next sequence number).
    pub fn len(&self) -> u64 {
        self.inner.lock().unwrap().next_seq
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn write_line(&self, render: impl FnOnce(u64) -> String) -> io::Result<u64> {
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.next_seq;
        let line = render(seq);
        use std::io::Seek;
        inner.file.seek(io::SeekFrom::End(0))?;
        inner.file.write_all(line.as_bytes())?;
        inner.file.flush()?;
        inner.next_seq = seq + 1;
        paccport_trace::metrics::counter_add("journal_appends_total", &[], 1);
        Ok(seq)
    }

    /// Append a record durably, hosting the persist chaos sites (see
    /// the module docs). Returns the record's sequence number — unless
    /// an injected crash or torn write ends the process instead.
    pub fn append(&self, payload: &str) -> io::Result<u64> {
        if faults::active() {
            let torn_key = format!(
                "journal:rec-{:016x}",
                fnv1a64(payload.as_bytes(), FNV_BASIS)
            );
            if !faults::already_injected(faults::FaultKind::TornWrite, &torn_key)
                && faults::inject(faults::FaultKind::TornWrite, &torn_key)
            {
                // The event reached the sink inside `inject` (and is
                // durable if the sink journals). Now leave the record
                // half-written — no newline, bytes cut mid-token —
                // and die like a power cut.
                let mut inner = self.inner.lock().unwrap();
                let seq = inner.next_seq;
                let line = render_record(seq, payload);
                let cut = line.len() / 2;
                use std::io::Seek;
                let _ = inner.file.seek(io::SeekFrom::End(0));
                let _ = inner.file.write_all(&line.as_bytes()[..cut]);
                let _ = inner.file.flush();
                drop(inner);
                faults::crash_exit(&torn_key);
            }
        }
        let seq = self.write_line(|seq| render_record(seq, payload))?;
        if faults::active() {
            let crash_key = format!("journal:step-{seq:06}");
            if faults::inject(faults::FaultKind::Crash, &crash_key) {
                faults::crash_exit(&crash_key);
            }
        }
        Ok(seq)
    }

    /// Append without rolling any fault — for records written *from*
    /// fault machinery (the event sink journaling an injected fault,
    /// metadata records). Rolling here would recurse: the sink fires
    /// inside `inject`, and an event append must never host the very
    /// fault it is recording.
    pub fn append_unrolled(&self, payload: &str) -> io::Result<u64> {
        self.write_line(|seq| render_record(seq, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("paccport-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d.join("journal.log")
    }

    #[test]
    fn records_round_trip_across_reopen() {
        let path = tmp("roundtrip");
        let j = Journal::create(&path).unwrap();
        assert!(j.is_empty());
        assert_eq!(j.append("cell one with spaces").unwrap(), 0);
        assert_eq!(j.append("").unwrap(), 1);
        assert_eq!(j.append("line\nbreaks\tand\\slashes").unwrap(), 2);
        drop(j);

        let open = Journal::open(&path).unwrap();
        assert_eq!(open.truncated_bytes, 0);
        assert_eq!(
            open.records,
            vec!["cell one with spaces", "", "line\nbreaks\tand\\slashes"]
        );
        assert_eq!(open.journal.len(), 3);
        // Appends continue at the next sequence number.
        assert_eq!(open.journal.append("four").unwrap(), 3);
    }

    #[test]
    fn torn_tail_is_truncated_to_the_durable_prefix() {
        let path = tmp("torn");
        let j = Journal::create(&path).unwrap();
        j.append("a").unwrap();
        j.append("b").unwrap();
        let full = std::fs::read(&path).unwrap();
        // Tear at every byte boundary of the final record: recovery
        // must always yield exactly the first record.
        let first_len = {
            let text = String::from_utf8(full.clone()).unwrap();
            text.split_inclusive('\n').next().unwrap().len()
        };
        for cut in first_len..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let open = Journal::open(&path).unwrap();
            assert_eq!(open.records, vec!["a"], "cut at {cut}");
            assert_eq!(open.truncated_bytes, (cut - first_len) as u64);
            // The file itself was repaired in place.
            assert_eq!(std::fs::read(&path).unwrap().len(), first_len);
        }
    }

    #[test]
    fn garbled_record_invalidates_from_there_on() {
        let path = tmp("garble");
        let j = Journal::create(&path).unwrap();
        j.append("a").unwrap();
        j.append("b").unwrap();
        j.append("c").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the second record's checksum region.
        let text = String::from_utf8(bytes.clone()).unwrap();
        let second_start = text.split_inclusive('\n').next().unwrap().len();
        bytes[second_start + 4] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let open = Journal::open(&path).unwrap();
        assert_eq!(open.records, vec!["a"]);
        assert!(open.truncated_bytes > 0);
    }

    #[test]
    fn spliced_record_with_wrong_seq_is_rejected() {
        let path = tmp("splice");
        let j = Journal::create(&path).unwrap();
        j.append("a").unwrap();
        drop(j);
        // Duplicate the (valid) first line: second copy claims seq 0
        // at position 1 and must be treated as corruption.
        let line = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{line}{line}")).unwrap();
        let open = Journal::open(&path).unwrap();
        assert_eq!(open.records, vec!["a"]);
        assert!(open.truncated_bytes > 0);
    }

    #[test]
    fn a_tail_garbled_into_invalid_utf8_is_recovered_not_an_error() {
        let path = tmp("nonutf8");
        let j = Journal::create(&path).unwrap();
        j.append("a").unwrap();
        j.append("b").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let text = String::from_utf8(bytes.clone()).unwrap();
        let second_start = text.split_inclusive('\n').next().unwrap().len();
        bytes[second_start + 2] = 0xff; // not valid in any UTF-8 sequence
        std::fs::write(&path, &bytes).unwrap();
        let open = Journal::open(&path).unwrap();
        assert_eq!(open.records, vec!["a"]);
        assert!(open.truncated_bytes > 0);
    }

    #[test]
    fn opening_a_missing_journal_starts_empty() {
        let path = tmp("fresh");
        let open = Journal::open(&path).unwrap();
        assert!(open.records.is_empty());
        assert_eq!(open.truncated_bytes, 0);
        open.journal.append("first").unwrap();
        assert_eq!(Journal::open(&path).unwrap().records, vec!["first"]);
    }
}
