//! Durable, corruption-evident file storage for lab artifacts.
//!
//! Two failure modes threaten stored baselines and journals: a crash
//! mid-write leaving a torn file, and silent on-disk corruption read
//! back as gospel. This module closes both:
//!
//! * [`write_atomic`] — write to a temp file in the target directory,
//!   then `rename` over the destination. Readers see either the old
//!   bytes or the new bytes, never a mix.
//! * [`write_checksummed`] / [`read_checksummed`] — prefix the payload
//!   with a `#phastlane-store crc32=...` header line and verify it on
//!   read. A torn or bit-flipped file fails with
//!   [`StoreError::Corrupt`], never a silent bad comparison.
//! * [`quarantine`] — move a corrupt file aside (`.corrupt` suffix) so
//!   the bad bytes are preserved for forensics without being re-read.
//!
//! Canonical report files stay plain (CI byte-compares them with
//! `cmp`); the checksum header is for the baseline store and other
//! internal artifacts where Phastlane owns both writer and reader.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of a checksummed store file's header line.
pub const HEADER_PREFIX: &str = "#phastlane-store crc32=";

/// CRC-32 (IEEE 802.3, polynomial `0xEDB8_8320`), bitwise — no table,
/// no dependency. Plenty fast for kilobyte-scale artifacts and stable
/// across platforms, which is all a torn-write detector needs.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// What went wrong reading a stored artifact. Split so callers can give
/// a missing baseline a different (friendlier) message than a corrupt
/// one.
#[derive(Debug)]
pub enum StoreError {
    /// The file does not exist.
    Missing(PathBuf),
    /// The file exists but its contents are torn, truncated, or fail
    /// the checksum; the string says how.
    Corrupt(PathBuf, String),
    /// Any other I/O failure.
    Io(PathBuf, io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Missing(p) => write!(f, "{} does not exist", p.display()),
            StoreError::Corrupt(p, why) => write!(f, "{} is corrupt: {why}", p.display()),
            StoreError::Io(p, e) => write!(f, "{}: {e}", p.display()),
        }
    }
}

impl StoreError {
    /// Whether this is the corruption variant (vs. missing / plain IO).
    pub fn is_corrupt(&self) -> bool {
        matches!(self, StoreError::Corrupt(..))
    }
}

fn io_error(path: &Path, e: io::Error) -> StoreError {
    if e.kind() == io::ErrorKind::NotFound {
        StoreError::Missing(path.to_path_buf())
    } else {
        StoreError::Io(path.to_path_buf(), e)
    }
}

/// Writes `bytes` to `path` atomically: the full payload lands in a
/// sibling temp file (same directory, so the `rename` cannot cross
/// filesystems), is flushed and synced, then renamed over the target.
/// A crash at any point leaves either the previous file or the new one
/// — never a prefix.
///
/// # Errors
///
/// Any I/O failure creating, writing, syncing, or renaming.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent).map_err(|e| StoreError::Io(path.to_path_buf(), e))?;
    }
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "store".into());
    let tmp = path.with_file_name(format!(".{file_name}.tmp"));
    let mut f = fs::File::create(&tmp).map_err(|e| StoreError::Io(tmp.clone(), e))?;
    let write = f
        .write_all(bytes)
        .and_then(|()| f.flush())
        .and_then(|()| f.sync_all());
    if let Err(e) = write {
        let _ = fs::remove_file(&tmp);
        return Err(StoreError::Io(tmp, e));
    }
    drop(f);
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        StoreError::Io(path.to_path_buf(), e)
    })
}

/// Atomically writes `payload` to `path` under a
/// `#phastlane-store crc32=...` header covering every payload byte.
///
/// # Errors
///
/// Same as [`write_atomic`].
pub fn write_checksummed(path: &Path, payload: &str) -> Result<(), StoreError> {
    let framed = format!(
        "{HEADER_PREFIX}{:08x}\n{payload}",
        crc32(payload.as_bytes())
    );
    write_atomic(path, framed.as_bytes())
}

/// Reads a file written by [`write_checksummed`] and verifies the
/// checksum. A file without the header is as unverified as one whose
/// digest does not match its payload: both are [`StoreError::Corrupt`].
///
/// # Errors
///
/// [`StoreError::Missing`] if absent, [`StoreError::Corrupt`] on a
/// missing or malformed header or a checksum mismatch,
/// [`StoreError::Io`] otherwise.
pub fn read_checksummed(path: &Path) -> Result<String, StoreError> {
    let bytes = fs::read(path).map_err(|e| io_error(path, e))?;
    let corrupt = |why: String| StoreError::Corrupt(path.to_path_buf(), why);
    // Bit rot does not respect UTF-8 boundaries: a flipped byte that
    // breaks the encoding is corruption, not a plain I/O failure.
    let raw = String::from_utf8(bytes)
        .map_err(|e| corrupt(format!("not valid UTF-8 ({e}) — bit rot or a binary file")))?;
    let Some(rest) = raw.strip_prefix(HEADER_PREFIX) else {
        return Err(corrupt("no checksum header".into()));
    };
    let Some((digest, payload)) = rest.split_once('\n') else {
        return Err(corrupt("checksum header line is unterminated".into()));
    };
    let expected = u32::from_str_radix(digest.trim(), 16)
        .map_err(|_| corrupt(format!("unparseable checksum {digest:?} in header")))?;
    let actual = crc32(payload.as_bytes());
    if actual != expected {
        return Err(corrupt(format!(
            "checksum mismatch (header {expected:08x}, content {actual:08x}) — torn write or bit rot"
        )));
    }
    Ok(payload.to_string())
}

/// Moves a corrupt file aside to `<name>.corrupt` (overwriting any
/// previous quarantine of the same file) and returns the new path. The
/// bad bytes stay on disk for inspection; the original name is freed so
/// a fresh artifact can be recorded.
///
/// # Errors
///
/// Any I/O failure renaming.
pub fn quarantine(path: &Path) -> Result<PathBuf, StoreError> {
    let mut name = path.as_os_str().to_owned();
    name.push(".corrupt");
    let dest = PathBuf::from(name);
    fs::rename(path, &dest).map_err(|e| io_error(path, e))?;
    Ok(dest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("phastlane-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn checksummed_round_trip_and_corruption_detection() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("baseline.json");
        write_checksummed(&path, "{\"x\": 1}\n").unwrap();
        assert_eq!(read_checksummed(&path).unwrap(), "{\"x\": 1}\n");

        // Flip one payload byte: the read must fail loudly.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        let err = read_checksummed(&path).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        // Truncation mid-payload is also caught.
        write_checksummed(&path, "{\"x\": 1}\n").unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(read_checksummed(&path).unwrap_err().is_corrupt());

        // A byte flip that breaks UTF-8 is corruption too, not plain IO.
        write_checksummed(&path, "{\"x\": 1}\n").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = 0xFF;
        fs::write(&path, &bytes).unwrap();
        let err = read_checksummed(&path).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
        assert!(err.to_string().contains("UTF-8"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn headerless_files_are_rejected() {
        let dir = tmp_dir("headerless");
        let path = dir.join("stripped.json");
        fs::write(&path, "{\"x\": 1}\n").unwrap();
        let err = read_checksummed(&path).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
        assert!(err.to_string().contains("no checksum header"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_not_corrupt() {
        let err = read_checksummed(Path::new("/nonexistent/phastlane/x.json")).unwrap_err();
        assert!(matches!(err, StoreError::Missing(_)), "{err}");
        assert!(!err.is_corrupt());
    }

    #[test]
    fn quarantine_moves_the_bad_file_aside() {
        let dir = tmp_dir("quarantine");
        let path = dir.join("bad.json");
        fs::write(&path, "torn").unwrap();
        let moved = quarantine(&path).unwrap();
        assert!(!path.exists());
        assert!(moved.exists());
        assert!(moved.to_string_lossy().ends_with("bad.json.corrupt"));
        assert_eq!(fs::read_to_string(&moved).unwrap(), "torn");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_whole_files() {
        let dir = tmp_dir("atomic");
        let path = dir.join("report.json");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second version, longer").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second version, longer");
        // No temp litter left behind.
        let entries: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
