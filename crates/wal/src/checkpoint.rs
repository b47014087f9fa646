//! Checkpoint persistence: one atomically replaced file.
//!
//! A checkpoint binds an opaque payload (the serving layer stores the
//! binary encoding of its relation and miner there) to a log position: "the
//! payload captures every record strictly before this position". Recovery
//! restores the payload and replays only the log tail at and after it.
//!
//! The file is written to `checkpoint.tmp`, synced, then renamed over
//! `checkpoint.bin` — so a crash at any instant leaves either the old
//! checkpoint or the new one, never a torn hybrid. The payload rides
//! under its own CRC anyway, as defense against bit rot after the rename.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::record::crc32;
use crate::{LogPosition, WalError};

/// Magic prefix of the checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 12] = b"ANNOWALCKPT1";

/// Final checkpoint file name.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// Staging name the checkpoint is written to before the atomic rename.
pub const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// A restored checkpoint: the payload and the log position it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Replay resumes at this position (records before it are compacted).
    pub position: LogPosition,
    /// The caller's opaque state blob.
    pub payload: Vec<u8>,
}

/// Path of the live checkpoint under `dir`.
pub fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join(CHECKPOINT_FILE)
}

/// Write a checkpoint durably: staging file, fsync, atomic rename, then a
/// best-effort directory sync so the rename itself survives power loss.
pub fn write_checkpoint(dir: &Path, position: LogPosition, payload: &[u8]) -> Result<(), WalError> {
    let mut bytes = Vec::with_capacity(HEADER_BYTES + payload.len());
    bytes.extend_from_slice(CHECKPOINT_MAGIC);
    bytes.extend_from_slice(&position.segment.to_le_bytes());
    bytes.extend_from_slice(&position.offset.to_le_bytes());
    let len = u32::try_from(payload.len()).map_err(|_| {
        WalError::Corrupt("checkpoint payload exceeds u32 length framing".to_string())
    })?;
    bytes.extend_from_slice(&len.to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);

    let tmp = dir.join(CHECKPOINT_TMP);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(&bytes)?;
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, checkpoint_path(dir))?;
    sync_dir(dir);
    Ok(())
}

/// Bytes before the payload: magic, position, payload length and CRC.
const HEADER_BYTES: usize = CHECKPOINT_MAGIC.len() + 24;

/// A present-but-invalid checkpoint is a hard [`WalError::Corrupt`]: it
/// is only ever produced whole (atomic rename), so damage here means the
/// disk lied, and silently replaying from a compacted log would
/// fabricate state.
fn corrupt(dir: &Path, msg: &str) -> WalError {
    WalError::Corrupt(format!(
        "checkpoint {}: {msg}",
        checkpoint_path(dir).display()
    ))
}

/// Open the live checkpoint, if any, and parse its fixed header: the
/// position it is bound to and the payload's length and CRC. The file is
/// left at the first payload byte.
fn open_checkpoint(
    dir: &Path,
) -> Result<Option<(std::fs::File, LogPosition, usize, u32)>, WalError> {
    let mut file = match std::fs::File::open(checkpoint_path(dir)) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut header = [0u8; HEADER_BYTES];
    file.read_exact(&mut header).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => corrupt(dir, "file shorter than header"),
        _ => e.into(),
    })?;
    let (magic, fields) = header.split_at(CHECKPOINT_MAGIC.len());
    if magic != CHECKPOINT_MAGIC {
        return Err(corrupt(dir, "bad magic"));
    }
    #[expect(
        clippy::expect_used,
        reason = "fixed ranges of the fixed-size header array"
    )]
    let (segment, offset, len, crc) = (
        u64::from_le_bytes(fields[..8].try_into().expect("8 bytes")),
        u64::from_le_bytes(fields[8..16].try_into().expect("8 bytes")),
        u32::from_le_bytes(fields[16..20].try_into().expect("4 bytes")) as usize,
        u32::from_le_bytes(fields[20..24].try_into().expect("4 bytes")),
    );
    Ok(Some((file, LogPosition { segment, offset }, len, crc)))
}

/// The log position the live checkpoint is bound to, from its header
/// alone: what a tail poll compares its cursor against without paying
/// for the payload.
pub(crate) fn read_position(dir: &Path) -> Result<Option<LogPosition>, WalError> {
    Ok(open_checkpoint(dir)?.map(|(_, position, _, _)| position))
}

/// Read the live checkpoint, if any, verifying the payload against the
/// length and CRC its header records.
pub fn read_checkpoint(dir: &Path) -> Result<Option<Checkpoint>, WalError> {
    let Some((mut file, position, len, crc)) = open_checkpoint(dir)? else {
        return Ok(None);
    };
    let mut payload = Vec::new();
    file.read_to_end(&mut payload)?;
    if payload.len() != len {
        return Err(corrupt(dir, "payload length mismatch"));
    }
    if crc32(&payload) != crc {
        return Err(corrupt(dir, "payload CRC mismatch"));
    }
    Ok(Some(Checkpoint { position, payload }))
}

/// Remove a stale staging file left by a crash mid-checkpoint (the live
/// checkpoint, if any, is still whole — the rename never happened).
pub fn remove_stale_tmp(dir: &Path) {
    let _ = std::fs::remove_file(dir.join(CHECKPOINT_TMP));
}

/// Best-effort fsync of the directory entry table. Errors are ignored:
/// not every filesystem supports dir sync, and the data files themselves
/// are already durable.
pub fn sync_dir(dir: &Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;

    #[test]
    fn checkpoint_roundtrips_and_replaces() {
        let dir = test_dir("ckpt-roundtrip");
        assert_eq!(read_checkpoint(&dir).unwrap(), None);
        let pos = LogPosition {
            segment: 3,
            offset: 16,
        };
        write_checkpoint(&dir, pos, b"state one").unwrap();
        let ck = read_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(ck.position, pos);
        assert_eq!(ck.payload, b"state one");

        let pos2 = LogPosition {
            segment: 9,
            offset: 16,
        };
        write_checkpoint(&dir, pos2, b"state two").unwrap();
        let ck = read_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(ck.position, pos2);
        assert_eq!(ck.payload, b"state two");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_is_a_hard_error() {
        let dir = test_dir("ckpt-corrupt");
        write_checkpoint(
            &dir,
            LogPosition {
                segment: 0,
                offset: 16,
            },
            b"payload",
        )
        .unwrap();
        let path = checkpoint_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_checkpoint(&dir), Err(WalError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
