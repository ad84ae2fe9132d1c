//! Durable, crash-safe checkpoint files.
//!
//! [`CheckpointStore`] manages a rotating `latest`/`best` pair of
//! checkpoint files inside one directory. Every write goes through
//! [`atomic_write`] — write to a temporary sibling, `fsync`, then an atomic
//! rename (plus a directory sync on Unix) — so a kill at any instant leaves
//! either the old file or the new file, never a torn one. Before a `latest`
//! write, the previous `latest` is rotated to `latest.prev.ckpt`; loading
//! tries `latest` first and falls back to the previous good file with a
//! warning when `latest` is corrupt or truncated.
//!
//! The store is format-agnostic: it moves bytes, and the caller supplies a
//! parse/validate closure (normally
//! [`Checkpoint::decode`](crate::serialize::Checkpoint::decode), whose CRC
//! footer check is what makes corruption detectable).

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// `fsync`, rename over the target, then best-effort directory sync so the
/// rename itself is durable.
///
/// # Errors
/// Any underlying IO error; on error the target file is untouched.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(dir) = dir {
        // Directory fsync is what persists the rename; failure here only
        // weakens durability, never correctness, so it is best-effort.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Why a [`CheckpointStore`] operation failed, with the path that failed.
///
/// Wraps the underlying [`io::Error`] so callers can still inspect the OS
/// error kind via [`std::error::Error::source`].
#[derive(Debug)]
pub enum CheckpointError {
    /// The store directory could not be created or opened.
    OpenDir {
        /// The directory handed to [`CheckpointStore::open`].
        dir: PathBuf,
        /// The underlying IO failure.
        source: io::Error,
    },
    /// Rotating or atomically writing a slot file failed.
    Save {
        /// The slot file being written.
        path: PathBuf,
        /// The underlying IO failure.
        source: io::Error,
    },
    /// Every existing candidate file for a slot was unreadable or corrupt.
    Load {
        /// The last candidate tried.
        path: PathBuf,
        /// The last read/parse failure.
        source: io::Error,
    },
    /// A checkpoint blob read fine but could not be decoded into the
    /// caller's state (format or architecture mismatch).
    Decode {
        /// The underlying decode failure.
        source: io::Error,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::OpenDir { dir, source } => {
                write!(f, "cannot open checkpoint directory {}: {source}", dir.display())
            }
            CheckpointError::Save { path, source } => {
                write!(f, "cannot save checkpoint {}: {source}", path.display())
            }
            CheckpointError::Load { path, source } => {
                write!(f, "cannot load checkpoint {}: {source}", path.display())
            }
            CheckpointError::Decode { source } => {
                write!(f, "cannot decode checkpoint: {source}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::OpenDir { source, .. }
            | CheckpointError::Save { source, .. }
            | CheckpointError::Load { source, .. }
            | CheckpointError::Decode { source } => Some(source),
        }
    }
}

/// Which of the two rotated slots a file belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// The most recent end-of-epoch state (resume point).
    Latest,
    /// The best-validation state (model selection).
    Best,
}

impl Slot {
    fn stem(self) -> &'static str {
        match self {
            Slot::Latest => "latest",
            Slot::Best => "best",
        }
    }
}

/// A directory of rotating checkpoint files.
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    /// [`CheckpointError::OpenDir`] when the directory cannot be created —
    /// e.g. the path (or a parent) is an existing file, or permissions
    /// forbid it.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|source| CheckpointError::OpenDir { dir: dir.clone(), source })?;
        Ok(Self { dir })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of a slot's current file (`latest.ckpt` / `best.ckpt`).
    pub fn path(&self, slot: Slot) -> PathBuf {
        self.dir.join(format!("{}.ckpt", slot.stem()))
    }

    /// Path of a slot's rotated previous file (`latest.prev.ckpt` …).
    pub fn prev_path(&self, slot: Slot) -> PathBuf {
        self.dir.join(format!("{}.prev.ckpt", slot.stem()))
    }

    /// Durably writes a slot: the current file (if any) is rotated to the
    /// `.prev` name, then the new bytes land via [`atomic_write`]. A crash
    /// between the two steps leaves only the rotated previous file, which
    /// [`load`](Self::load) finds on fallback.
    ///
    /// # Errors
    /// [`CheckpointError::Save`] naming the slot file on any IO failure.
    pub fn save(&self, slot: Slot, bytes: &[u8]) -> Result<(), CheckpointError> {
        let current = self.path(slot);
        let wrap = |source| CheckpointError::Save { path: current.clone(), source };
        if current.exists() {
            fs::rename(&current, self.prev_path(slot)).map_err(wrap)?;
        }
        atomic_write(&current, bytes).map_err(wrap)
    }

    /// Loads a slot through a caller-supplied parser, falling back from a
    /// corrupt or unreadable current file to the rotated previous one with
    /// a warning on stderr.
    ///
    /// Returns `Ok(None)` when neither file exists.
    ///
    /// # Errors
    /// [`CheckpointError::Load`] carrying the *last* parse/read error when
    /// every existing candidate is bad.
    pub fn load<T>(
        &self,
        slot: Slot,
        mut parse: impl FnMut(&[u8]) -> io::Result<T>,
    ) -> Result<Option<T>, CheckpointError> {
        let mut last_err: Option<(PathBuf, io::Error)> = None;
        for path in [self.path(slot), self.prev_path(slot)] {
            if !path.exists() {
                continue;
            }
            let attempt = fs::read(&path).and_then(|bytes| parse(&bytes));
            match attempt {
                Ok(v) => {
                    if last_err.is_some() {
                        cmr_obs::log(&format!(
                            "[checkpoint] recovered from previous good file {}",
                            path.display()
                        ));
                    }
                    return Ok(Some(v));
                }
                Err(e) => {
                    cmr_obs::log(&format!(
                        "[checkpoint] warning: {} unusable ({e}); trying fallback",
                        path.display()
                    ));
                    last_err = Some((path, e));
                }
            }
        }
        match last_err {
            Some((path, source)) => Err(CheckpointError::Load { path, source }),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!(
            "cmr-ckpt-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn parse_ok(bytes: &[u8]) -> io::Result<Vec<u8>> {
        // Toy format: payload must start with a magic byte.
        if bytes.first() == Some(&0xAB) {
            Ok(bytes.to_vec())
        } else {
            Err(io::Error::new(io::ErrorKind::InvalidData, "bad toy magic"))
        }
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = scratch_dir("aw");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("file.bin");
        atomic_write(&p, b"one").unwrap();
        atomic_write(&p, b"two").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"two");
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, vec!["file.bin"], "no temp litter");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_rotates_and_load_prefers_latest() {
        let dir = scratch_dir("rot");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.load(Slot::Latest, parse_ok).unwrap().is_none());

        store.save(Slot::Latest, &[0xAB, 1]).unwrap();
        store.save(Slot::Latest, &[0xAB, 2]).unwrap();
        assert_eq!(fs::read(store.prev_path(Slot::Latest)).unwrap(), vec![0xAB, 1]);
        assert_eq!(store.load(Slot::Latest, parse_ok).unwrap().unwrap(), vec![0xAB, 2]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_falls_back_to_previous_good_file() {
        let dir = scratch_dir("fb");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(Slot::Latest, &[0xAB, 1]).unwrap();
        store.save(Slot::Latest, &[0xAB, 2]).unwrap();
        // Corrupt latest: the parser rejects it, prev must win.
        fs::write(store.path(Slot::Latest), [0x00, 9]).unwrap();
        assert_eq!(store.load(Slot::Latest, parse_ok).unwrap().unwrap(), vec![0xAB, 1]);

        // Both corrupt: surface the error instead of inventing data.
        fs::write(store.prev_path(Slot::Latest), [0x00]).unwrap();
        assert!(store.load(Slot::Latest, parse_ok).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_store_dir_is_a_typed_error() {
        let dir = scratch_dir("bad");
        fs::create_dir_all(&dir).unwrap();
        // A plain file squatting where the store directory should be: the
        // kernel refuses the directory no matter who asks (unlike a
        // permission bit, which root would bypass).
        let file = dir.join("occupied");
        fs::write(&file, b"x").unwrap();

        let err = CheckpointStore::open(&file).err().expect("open must fail");
        assert!(matches!(&err, CheckpointError::OpenDir { .. }), "{err:?}");
        assert!(err.to_string().contains("occupied"), "{err}");
        assert!(std::error::Error::source(&err).is_some(), "io cause preserved");

        // Nesting under the file can never be created either.
        assert!(CheckpointStore::open(file.join("sub")).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_error_names_the_failing_file() {
        let dir = scratch_dir("name");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(Slot::Latest, &[0x00, 1]).unwrap(); // bad toy magic
        let err = store.load(Slot::Latest, parse_ok).err().expect("corrupt");
        match err {
            CheckpointError::Load { ref path, .. } => {
                assert!(path.ends_with("latest.ckpt"), "{path:?}")
            }
            other => panic!("expected Load error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn slots_are_independent() {
        let dir = scratch_dir("slots");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(Slot::Latest, &[0xAB, 1]).unwrap();
        store.save(Slot::Best, &[0xAB, 9]).unwrap();
        assert_eq!(store.load(Slot::Best, parse_ok).unwrap().unwrap(), vec![0xAB, 9]);
        assert_eq!(store.load(Slot::Latest, parse_ok).unwrap().unwrap(), vec![0xAB, 1]);
        let _ = fs::remove_dir_all(&dir);
    }
}
