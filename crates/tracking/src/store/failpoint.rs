//! Deterministic fault injection for the durability layer.
//!
//! The store performs all I/O through the [`Fs`] trait. Production code
//! uses [`StdFs`] (real files, real fsync). Tests use [`FailpointFs`]: an
//! in-memory file system with a *kill switch* — arm it with
//! [`FailpointFs::arm`] and the Nth mutating operation fails, committing
//! only a prefix of the bytes when that operation is a write (a torn
//! write), after which every further operation fails too (the process
//! model is dead). Because operations are counted deterministically, a
//! test can enumerate *every* crash point of a workload: run once clean to
//! learn the operation count, then re-run with `kill_at = 1, 2, …` and
//! assert recovery invariants at each.
//!
//! [`FailpointWriter`] is the same idea for plain `io::Write` sinks
//! (e.g. an encoded snapshot streamed into a buffer).
#![expect(
    clippy::indexing_slicing,
    reason = "crash-injection test double; indexes its own fixed script, not wire input"
)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// The file-system surface the store needs. Deliberately small: create /
/// append / read / sync / atomic-rename / truncate / list.
pub trait Fs {
    /// Readable and writable file handle.
    type File: Read + Write;

    /// Creates the directory (and parents) if missing.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Creates (truncating) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Self::File>;
    /// Opens a file for appending.
    fn open_append(&self, path: &Path) -> io::Result<Self::File>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Durably flushes a file handle (fsync).
    fn sync(&self, file: &mut Self::File) -> io::Result<()>;
    /// Atomically replaces `to` with `from`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Truncates a file to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// The files directly inside `dir` (no recursion), in sorted order.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// The real file system.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

impl Fs for StdFs {
    type File = std::fs::File;

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn create(&self, path: &Path) -> io::Result<Self::File> {
        std::fs::File::create(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Self::File> {
        std::fs::OpenOptions::new().append(true).open(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn sync(&self, file: &mut Self::File) -> io::Result<()> {
        file.flush()?;
        file.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

#[derive(Debug, Default)]
struct FailpointState {
    files: BTreeMap<PathBuf, Vec<u8>>,
    /// Mutating operations performed since the last [`FailpointFs::arm`].
    ops: u64,
    /// Fail the `kill_at`-th mutating operation (1-based); `None` = never.
    kill_at: Option<u64>,
    /// Set once the failpoint fired: the process model is dead and every
    /// operation (reads included) fails until [`FailpointFs::disarm`].
    killed: bool,
}

impl FailpointState {
    /// Ticks the mutating-operation counter; `Err` when this operation is
    /// the one that kills the process model (or it is already dead).
    fn tick(&mut self) -> io::Result<()> {
        self.check_alive()?;
        self.ops += 1;
        if self.kill_at == Some(self.ops) {
            self.killed = true;
            return Err(killed_err("failpoint: crashed at operation"));
        }
        Ok(())
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.killed {
            return Err(killed_err("failpoint: process killed"));
        }
        Ok(())
    }
}

fn killed_err(msg: &str) -> io::Error {
    io::Error::other(msg.to_string())
}

/// In-memory file system with a deterministic kill switch. Cloning shares
/// the underlying state, so the store and the test observe the same files.
#[derive(Debug, Clone, Default)]
pub struct FailpointFs {
    state: Rc<RefCell<FailpointState>>,
}

impl FailpointFs {
    pub fn new() -> FailpointFs {
        FailpointFs::default()
    }

    /// Arms the kill switch: the `kill_at`-th mutating operation from now
    /// (1-based) fails, and everything after it fails too. Resets the
    /// operation counter.
    pub fn arm(&self, kill_at: u64) {
        let mut s = self.state.borrow_mut();
        s.ops = 0;
        s.kill_at = Some(kill_at);
        s.killed = false;
    }

    /// Disarms the kill switch and revives the process model ("reboot");
    /// surviving bytes are kept as-is. Resets the operation counter.
    pub fn disarm(&self) {
        let mut s = self.state.borrow_mut();
        s.ops = 0;
        s.kill_at = None;
        s.killed = false;
    }

    /// Mutating operations performed since the last arm/disarm.
    pub fn ops(&self) -> u64 {
        self.state.borrow().ops
    }

    /// Whether the armed failpoint has fired.
    pub fn crashed(&self) -> bool {
        self.state.borrow().killed
    }

    /// Raw contents of a file, for tests that corrupt bytes directly.
    pub fn dump(&self, path: &Path) -> Option<Vec<u8>> {
        self.state.borrow().files.get(path).cloned()
    }

    /// Overwrites a file's raw contents (bypasses failpoints).
    pub fn store_raw(&self, path: &Path, bytes: Vec<u8>) {
        self.state.borrow_mut().files.insert(path.to_path_buf(), bytes);
    }
}

/// Handle into a [`FailpointFs`] file. Writes append at the end of the
/// file (both fresh-create and append handles write sequentially); reads
/// advance an independent position.
#[derive(Debug)]
pub struct FailpointFile {
    state: Rc<RefCell<FailpointState>>,
    path: PathBuf,
    read_pos: usize,
}

impl Read for FailpointFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let s = self.state.borrow();
        s.check_alive()?;
        let Some(bytes) = s.files.get(&self.path) else {
            return Err(io::Error::new(io::ErrorKind::NotFound, "file removed"));
        };
        let n = buf.len().min(bytes.len().saturating_sub(self.read_pos));
        buf[..n].copy_from_slice(&bytes[self.read_pos..self.read_pos + n]);
        self.read_pos += n;
        Ok(n)
    }
}

impl Write for FailpointFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut s = self.state.borrow_mut();
        match s.tick() {
            Ok(()) => {
                s.files.entry(self.path.clone()).or_default().extend_from_slice(buf);
                Ok(buf.len())
            }
            Err(e) => {
                // A torn write: the dying process committed only a prefix.
                if s.killed && s.kill_at == Some(s.ops) {
                    let torn = buf.len() / 2;
                    s.files.entry(self.path.clone()).or_default().extend_from_slice(&buf[..torn]);
                }
                Err(e)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.state.borrow().check_alive()
    }
}

impl Fs for FailpointFs {
    type File = FailpointFile;

    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        // Directories are implicit; still honour a fired failpoint.
        self.state.borrow().check_alive()
    }

    fn create(&self, path: &Path) -> io::Result<Self::File> {
        let mut s = self.state.borrow_mut();
        s.tick()?;
        s.files.insert(path.to_path_buf(), Vec::new());
        Ok(FailpointFile { state: Rc::clone(&self.state), path: path.to_path_buf(), read_pos: 0 })
    }

    fn open_append(&self, path: &Path) -> io::Result<Self::File> {
        let s = self.state.borrow();
        s.check_alive()?;
        if !s.files.contains_key(path) {
            return Err(io::Error::new(io::ErrorKind::NotFound, "no such file"));
        }
        Ok(FailpointFile { state: Rc::clone(&self.state), path: path.to_path_buf(), read_pos: 0 })
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let s = self.state.borrow();
        s.check_alive()?;
        s.files
            .get(path)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn sync(&self, _file: &mut Self::File) -> io::Result<()> {
        self.state.borrow_mut().tick()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.state.borrow_mut();
        // Atomic: if the operation dies, it simply did not happen.
        s.tick()?;
        let Some(bytes) = s.files.remove(from) else {
            return Err(io::Error::new(io::ErrorKind::NotFound, "rename source missing"));
        };
        s.files.insert(to.to_path_buf(), bytes);
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut s = self.state.borrow_mut();
        s.tick()?;
        let Some(bytes) = s.files.get_mut(path) else {
            return Err(io::Error::new(io::ErrorKind::NotFound, "no such file"));
        };
        bytes.truncate(len as usize);
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let s = self.state.borrow();
        s.check_alive()?;
        Ok(s.files.keys().filter(|p| p.parent() == Some(dir)).cloned().collect())
    }

    fn exists(&self, path: &Path) -> bool {
        self.state.borrow().files.contains_key(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.borrow_mut();
        s.tick()?;
        if s.files.remove(path).is_none() {
            return Err(io::Error::new(io::ErrorKind::NotFound, "no such file"));
        }
        Ok(())
    }
}

/// An `io::Write` adaptor that fails the `fail_at`-th write call
/// (1-based), committing only half of that write's bytes (a torn write),
/// and every call after it. For torn-write tests of encoded snapshots.
#[derive(Debug)]
pub struct FailpointWriter<W> {
    inner: W,
    writes: u64,
    fail_at: u64,
    dead: bool,
}

impl<W: Write> FailpointWriter<W> {
    pub fn new(inner: W, fail_at: u64) -> FailpointWriter<W> {
        FailpointWriter { inner, writes: 0, fail_at, dead: false }
    }

    /// Write calls observed so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Unwraps the inner writer (what survived the crash).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FailpointWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(killed_err("failpoint: writer dead"));
        }
        self.writes += 1;
        if self.writes == self.fail_at {
            self.dead = true;
            self.inner.write_all(&buf[..buf.len() / 2])?;
            return Err(killed_err("failpoint: torn write"));
        }
        self.inner.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(killed_err("failpoint: writer dead"));
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_fs_round_trips_files() {
        let fs = FailpointFs::new();
        let dir = Path::new("/store");
        fs.create_dir_all(dir).unwrap();
        let mut f = fs.create(&dir.join("a.bin")).unwrap();
        f.write_all(b"hello").unwrap();
        fs.sync(&mut f).unwrap();
        drop(f);
        let mut f = fs.open_append(&dir.join("a.bin")).unwrap();
        f.write_all(b" world").unwrap();
        assert_eq!(fs.read(&dir.join("a.bin")).unwrap(), b"hello world");
        assert_eq!(fs.list(dir).unwrap(), vec![dir.join("a.bin")]);
    }

    #[test]
    fn kill_at_nth_op_is_deterministic_and_torn() {
        let run = |kill_at: u64| {
            let fs = FailpointFs::new();
            fs.arm(kill_at);
            let path = Path::new("/f");
            let r = (|| -> io::Result<()> {
                let mut f = fs.create(path)?; // op 1
                f.write_all(&[0xAB; 8])?; // op 2
                f.write_all(&[0xCD; 8])?; // op 3
                fs.sync(&mut f)?; // op 4
                Ok(())
            })();
            (r.is_err(), fs.dump(path).map(|b| b.len()))
        };
        assert_eq!(run(1), (true, None)); // create itself died
        assert_eq!(run(2), (true, Some(4))); // torn first write: half of 8
        assert_eq!(run(3), (true, Some(12))); // 8 + half of 8
        assert_eq!(run(4), (true, Some(16))); // sync died, bytes in place
        assert_eq!(run(5), (false, Some(16))); // clean run
    }

    #[test]
    fn killed_fs_refuses_everything_until_disarm() {
        let fs = FailpointFs::new();
        fs.arm(1);
        assert!(fs.create(Path::new("/x")).is_err());
        assert!(fs.read(Path::new("/x")).is_err());
        assert!(fs.list(Path::new("/")).is_err());
        fs.disarm();
        assert!(fs.create(Path::new("/x")).is_ok());
    }

    #[test]
    fn rename_is_atomic_under_crash() {
        let fs = FailpointFs::new();
        let mut f = fs.create(Path::new("/a.tmp")).unwrap();
        f.write_all(b"payload").unwrap();
        drop(f);
        fs.arm(1);
        assert!(fs.rename(Path::new("/a.tmp"), Path::new("/a")).is_err());
        fs.disarm();
        // The rename did not happen at all: source intact, target absent.
        assert!(fs.exists(Path::new("/a.tmp")));
        assert!(!fs.exists(Path::new("/a")));
    }

    #[test]
    fn failpoint_writer_tears_the_nth_write() {
        let mut w = FailpointWriter::new(Vec::new(), 2);
        w.write_all(&[1; 10]).unwrap();
        assert!(w.write_all(&[2; 10]).is_err());
        assert!(w.write_all(&[3; 10]).is_err());
        let buf = w.into_inner();
        assert_eq!(buf.len(), 15); // 10 + torn half of 10
    }
}
