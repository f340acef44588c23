//! On-disk sharded matrix container — the out-of-core storage layer.
//!
//! A shard file stores one sparse matrix as a sequence of **row-block
//! shards**, each an independent CSR fragment covering a contiguous range of
//! rows (shard-local `rowptr`, full-width column indices). The point of the
//! container is that each shard can be loaded, fingerprinted, classified and
//! tuned *independently* — the paper's observation that bottlenecks are
//! structural and local, lifted to matrices that never fit in memory at
//! once. `sparseopt-core`'s `ShardedOp` streams these shards through a
//! bounded window; the optimizer picks a per-shard plan.
//!
//! ## File layout (all little-endian)
//!
//! ```text
//! offset 0   magic     8 bytes  "SPSHRD1\0"
//!        8   version   u32      = 1
//!       12   flags     u32      = 0 (reserved)
//!       16   nrows     u64
//!       24   ncols     u64
//!       32   nnz       u64
//!       40   nshards   u64
//!       48   shard table, nshards × 40 bytes:
//!              row_start u64 | nrows u64 | nnz u64 | offset u64 | len u64
//!       ...  shard payloads, 8-byte aligned, one per table entry:
//!              rowptr  (nrows_i + 1) × u64   (shard-local, starts at 0)
//!              colind  nnz_i × u32           (padded to 8-byte boundary)
//!              values  nnz_i × f64
//! ```
//!
//! [`ShardStore::open`] validates the header, the shard table, and every
//! payload extent against the file size before returning, so a corrupt or
//! truncated file degrades to a typed [`ShardError`] — never a panic. On
//! Unix the payload region is `mmap`ed read-only and [`ShardStore::load`]
//! copies one shard's extent out of the mapping; elsewhere (or when the
//! mapping fails) it falls back to seek-and-read.
//!
//! ## Example
//!
//! ```
//! use sparseopt_core::prelude::CsrMatrix;
//! use sparseopt_matrix::generators;
//! use sparseopt_matrix::shard::{write_shard_file, ShardStore};
//!
//! let csr = CsrMatrix::from_coo(&generators::banded(100, 3));
//! let path = std::env::temp_dir().join(format!("doc-shards-{}.shards", std::process::id()));
//! let nshards = write_shard_file(&path, &csr, 32).unwrap();
//! assert_eq!(nshards, 4); // ceil(100 / 32)
//!
//! let store = ShardStore::open(&path).unwrap();
//! assert_eq!((store.nrows(), store.ncols(), store.nnz()), (100, 100, csr.nnz()));
//! // Shard 1 covers rows 32..64 and is itself a CSR matrix over all columns.
//! let shard = store.load(1).unwrap();
//! assert_eq!(store.meta(1).rows, 32..64);
//! assert_eq!((shard.nrows(), shard.ncols()), (32, 100));
//! std::fs::remove_file(&path).unwrap();
//! ```

use sparseopt_core::prelude::CsrMatrix;
use std::borrow::Cow;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::Mutex;

/// File magic: identifies a sparseopt shard container.
pub const SHARD_MAGIC: [u8; 8] = *b"SPSHRD1\0";
/// Container format version written by [`write_shard_file`] and required by
/// [`ShardStore::open`].
pub const SHARD_FORMAT_VERSION: u32 = 1;

const HEADER_BYTES: u64 = 48;
const TABLE_ENTRY_BYTES: u64 = 40;

/// Typed failure of shard-container I/O. Corrupt or truncated files always
/// surface here — opening and loading never panic on bad bytes.
#[derive(Debug)]
pub enum ShardError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with [`SHARD_MAGIC`] — not a shard container.
    BadMagic,
    /// The container was written by an incompatible format version.
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// Structurally invalid contents (truncation, inconsistent shard table,
    /// out-of-bounds payload, malformed CSR arrays).
    Corrupt(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard i/o error: {e}"),
            ShardError::BadMagic => write!(f, "not a shard container (bad magic)"),
            ShardError::BadVersion { found } => write!(
                f,
                "unsupported shard container version {found} (expected {SHARD_FORMAT_VERSION})"
            ),
            ShardError::Corrupt(why) => write!(f, "corrupt shard container: {why}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// One shard-table entry: which rows a shard covers and where its payload
/// lives in the file.
#[derive(Clone, Debug)]
pub struct ShardMeta {
    /// Global row range `[start, end)` the shard covers.
    pub rows: Range<usize>,
    /// Nonzeros stored in the shard.
    pub nnz: usize,
    offset: u64,
    len: u64,
}

fn payload_len(nrows: usize, nnz: usize) -> u64 {
    let rowptr = (nrows as u64 + 1) * 8;
    let colind = (nnz as u64 * 4).div_ceil(8) * 8; // padded to 8-byte boundary
    let values = nnz as u64 * 8;
    rowptr + colind + values
}

/// Splits `csr` into `ceil(nrows / rows_per_shard)` row-block shards and
/// writes them as a shard container at `path`, returning the shard count.
///
/// The matrix itself stays in memory here — this is the *producer* side,
/// typically run once by the `mm2shards` converter; consumers then stream
/// the file through [`ShardStore`] without ever holding the whole matrix.
///
/// # Panics
/// Panics if `rows_per_shard == 0`.
pub fn write_shard_file(
    path: &Path,
    csr: &CsrMatrix,
    rows_per_shard: usize,
) -> Result<usize, ShardError> {
    assert!(rows_per_shard > 0, "rows_per_shard must be at least 1");
    let nshards = csr.nrows().div_ceil(rows_per_shard);
    let rowptr = csr.rowptr();

    // Lay the table out up front: payloads start 8-aligned right after it
    // (48 + 40·nshards is already a multiple of 8).
    let mut metas = Vec::with_capacity(nshards);
    let mut offset = HEADER_BYTES + nshards as u64 * TABLE_ENTRY_BYTES;
    for s in 0..nshards {
        let start = s * rows_per_shard;
        let end = ((s + 1) * rows_per_shard).min(csr.nrows());
        let nnz = rowptr[end] - rowptr[start];
        let len = payload_len(end - start, nnz);
        metas.push(ShardMeta {
            rows: start..end,
            nnz,
            offset,
            len,
        });
        offset += len;
    }

    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&SHARD_MAGIC)?;
    w.write_all(&SHARD_FORMAT_VERSION.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?; // flags
    for dim in [csr.nrows(), csr.ncols(), csr.nnz(), nshards] {
        w.write_all(&(dim as u64).to_le_bytes())?;
    }
    for m in &metas {
        for field in [
            m.rows.start as u64,
            m.rows.len() as u64,
            m.nnz as u64,
            m.offset,
            m.len,
        ] {
            w.write_all(&field.to_le_bytes())?;
        }
    }
    for m in &metas {
        let base = rowptr[m.rows.start];
        for r in m.rows.clone() {
            w.write_all(&((rowptr[r] - base) as u64).to_le_bytes())?;
        }
        w.write_all(&((rowptr[m.rows.end] - base) as u64).to_le_bytes())?;
        let cols = &csr.colind()[base..base + m.nnz];
        for &c in cols {
            w.write_all(&c.to_le_bytes())?;
        }
        if m.nnz * 4 % 8 != 0 {
            w.write_all(&[0u8; 4])?; // pad colind to the 8-byte boundary
        }
        for &v in &csr.values()[base..base + m.nnz] {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(nshards)
}

#[cfg(unix)]
mod map {
    //! Minimal read-only `mmap` binding. `std` already links libc on Unix,
    //! so the two syscall wrappers can be declared directly — no crate.
    use std::os::fd::AsRawFd;

    use core::ffi::{c_int, c_void};
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 0x1;
    const MAP_PRIVATE: c_int = 0x2;

    /// A whole-file read-only private mapping.
    pub struct Map {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is immutable (PROT_READ, MAP_PRIVATE) and owned
    // until Drop, so shared references from any thread are fine.
    unsafe impl Send for Map {}
    unsafe impl Sync for Map {}

    impl Map {
        /// Maps the first `len` bytes of `file`; `None` if the kernel
        /// refuses (the caller falls back to seek-and-read).
        pub fn new(file: &std::fs::File, len: usize) -> Option<Self> {
            if len == 0 {
                return None;
            }
            // SAFETY: fd is valid for the duration of the call; a failed
            // mapping returns MAP_FAILED which we translate to None.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 || ptr.is_null() {
                return None;
            }
            Some(Self {
                ptr: ptr as *const u8,
                len,
            })
        }

        pub fn bytes(&self) -> &[u8] {
            // SAFETY: ptr..ptr+len is a live read-only mapping we own.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            // SAFETY: exact (addr, len) pair returned by mmap.
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }
}

enum Backing {
    #[cfg(unix)]
    Map(map::Map),
    File(Mutex<File>),
}

/// Read side of the shard container: validates the file once at open, then
/// serves independent row-block [`CsrMatrix`] fragments on demand.
///
/// The store is `Send + Sync`; cloning an `Arc<ShardStore>` into per-shard
/// loader closures is the intended usage (see `ShardedOp` in
/// `sparseopt-core`).
pub struct ShardStore {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    metas: Vec<ShardMeta>,
    backing: Backing,
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

impl ShardStore {
    /// Opens and fully validates a shard container.
    ///
    /// Every structural invariant is checked here — magic, version, shard
    /// table coverage (contiguous rows, nnz totals), and payload extents
    /// against the real file size — so later [`load`](Self::load) calls
    /// cannot run past EOF and corrupt files fail with a typed
    /// [`ShardError`] instead of a panic.
    pub fn open(path: &Path) -> Result<Self, ShardError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_BYTES {
            return Err(ShardError::Corrupt(format!(
                "file is {file_len} bytes, smaller than the {HEADER_BYTES}-byte header"
            )));
        }
        let mut header = [0u8; HEADER_BYTES as usize];
        file.read_exact(&mut header)?;
        if header[..8] != SHARD_MAGIC {
            return Err(ShardError::BadMagic);
        }
        let version = le_u32(&header[8..]);
        if version != SHARD_FORMAT_VERSION {
            return Err(ShardError::BadVersion { found: version });
        }
        let nrows = le_u64(&header[16..]) as usize;
        let ncols = le_u64(&header[24..]) as usize;
        let nnz = le_u64(&header[32..]) as usize;
        let nshards = le_u64(&header[40..]) as usize;

        let table_bytes = (nshards as u64)
            .checked_mul(TABLE_ENTRY_BYTES)
            .ok_or_else(|| {
                ShardError::Corrupt(format!("shard count {nshards} overflows the table size"))
            })?;
        if HEADER_BYTES + table_bytes > file_len {
            return Err(ShardError::Corrupt(format!(
                "shard table ({nshards} entries) runs past end of file"
            )));
        }
        let mut raw = vec![0u8; table_bytes as usize];
        file.read_exact(&mut raw)?;

        let mut metas = Vec::with_capacity(nshards);
        let (mut next_row, mut nnz_total) = (0usize, 0usize);
        for (s, e) in raw.chunks_exact(TABLE_ENTRY_BYTES as usize).enumerate() {
            let row_start = le_u64(e) as usize;
            let shard_rows = le_u64(&e[8..]) as usize;
            let shard_nnz = le_u64(&e[16..]) as usize;
            let offset = le_u64(&e[24..]);
            let len = le_u64(&e[32..]);
            if row_start != next_row {
                return Err(ShardError::Corrupt(format!(
                    "shard {s} starts at row {row_start}, expected {next_row}"
                )));
            }
            if len != payload_len(shard_rows, shard_nnz) {
                return Err(ShardError::Corrupt(format!(
                    "shard {s} payload length {len} disagrees with its row/nnz counts"
                )));
            }
            let end = offset.checked_add(len).ok_or_else(|| {
                ShardError::Corrupt(format!("shard {s} payload extent overflows"))
            })?;
            if offset < HEADER_BYTES + table_bytes || end > file_len {
                return Err(ShardError::Corrupt(format!(
                    "shard {s} payload [{offset}, {end}) is outside the file"
                )));
            }
            next_row = row_start + shard_rows;
            nnz_total += shard_nnz;
            metas.push(ShardMeta {
                rows: row_start..next_row,
                nnz: shard_nnz,
                offset,
                len,
            });
        }
        if next_row != nrows {
            return Err(ShardError::Corrupt(format!(
                "shards cover {next_row} rows, header says {nrows}"
            )));
        }
        if nnz_total != nnz {
            return Err(ShardError::Corrupt(format!(
                "shards hold {nnz_total} nonzeros, header says {nnz}"
            )));
        }

        #[cfg(unix)]
        let backing = match map::Map::new(&file, file_len as usize) {
            Some(m) => Backing::Map(m),
            None => Backing::File(Mutex::new(file)),
        };
        #[cfg(not(unix))]
        let backing = Backing::File(Mutex::new(file));

        Ok(Self {
            nrows,
            ncols,
            nnz,
            metas,
            backing,
        })
    }

    /// Matrix row count.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Matrix column count.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Total stored nonzeros across all shards.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Number of row-block shards.
    pub fn nshards(&self) -> usize {
        self.metas.len()
    }

    /// The full shard table.
    pub fn shards(&self) -> &[ShardMeta] {
        &self.metas
    }

    /// Table entry for shard `i`.
    ///
    /// # Panics
    /// Panics if `i >= nshards()`.
    pub fn meta(&self, i: usize) -> &ShardMeta {
        &self.metas[i]
    }

    fn payload(&self, offset: u64, len: u64) -> Result<Cow<'_, [u8]>, ShardError> {
        match &self.backing {
            #[cfg(unix)]
            Backing::Map(m) => Ok(Cow::Borrowed(
                &m.bytes()[offset as usize..(offset + len) as usize],
            )),
            Backing::File(f) => {
                let mut buf = vec![0u8; len as usize];
                let mut f = f.lock().expect("shard file lock");
                f.seek(SeekFrom::Start(offset))?;
                f.read_exact(&mut buf)?;
                Ok(Cow::Owned(buf))
            }
        }
    }

    /// Loads shard `i` as an owned shard-local CSR fragment:
    /// `meta(i).rows.len()` rows over the full `ncols()` columns.
    ///
    /// The payload bytes are validated (monotone `rowptr` ending at the
    /// shard's nnz, in-bounds column indices), so flipped bits degrade to
    /// [`ShardError::Corrupt`] rather than a panic or out-of-bounds CSR.
    ///
    /// # Panics
    /// Panics if `i >= nshards()`.
    pub fn load(&self, i: usize) -> Result<CsrMatrix, ShardError> {
        let meta = self.metas[i].clone();
        let bytes = self.payload(meta.offset, meta.len)?;
        let rows = meta.rows.len();

        let mut rowptr = Vec::with_capacity(rows + 1);
        for chunk in bytes[..(rows + 1) * 8].chunks_exact(8) {
            rowptr.push(le_u64(chunk) as usize);
        }
        let ok_rowptr =
            rowptr[0] == 0 && rowptr.windows(2).all(|w| w[0] <= w[1]) && rowptr[rows] == meta.nnz;
        if !ok_rowptr {
            return Err(ShardError::Corrupt(format!(
                "shard {i} rowptr is not monotone 0..{}",
                meta.nnz
            )));
        }

        let col_base = (rows + 1) * 8;
        let mut colind = Vec::with_capacity(meta.nnz);
        for chunk in bytes[col_base..col_base + meta.nnz * 4].chunks_exact(4) {
            let c = le_u32(chunk);
            if c as usize >= self.ncols {
                return Err(ShardError::Corrupt(format!(
                    "shard {i} column index {c} is out of bounds (ncols {})",
                    self.ncols
                )));
            }
            colind.push(c);
        }

        let val_base = col_base + (meta.nnz * 4).div_ceil(8) * 8;
        let mut values = Vec::with_capacity(meta.nnz);
        for chunk in bytes[val_base..val_base + meta.nnz * 8].chunks_exact(8) {
            values.push(f64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }

        Ok(CsrMatrix::from_raw(
            rows, self.ncols, rowptr, colind, values,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sparseopt-shard-{}-{name}", std::process::id()))
    }

    fn roundtrip(csr: &CsrMatrix, rows_per_shard: usize, name: &str) {
        let path = tmp(name);
        let nshards = write_shard_file(&path, csr, rows_per_shard).expect("write");
        assert_eq!(nshards, csr.nrows().div_ceil(rows_per_shard));
        let store = ShardStore::open(&path).expect("open");
        assert_eq!(store.nrows(), csr.nrows());
        assert_eq!(store.ncols(), csr.ncols());
        assert_eq!(store.nnz(), csr.nnz());
        assert_eq!(store.nshards(), nshards);
        for i in 0..nshards {
            let meta = store.meta(i).clone();
            let shard = store.load(i).expect("load");
            assert_eq!(shard.nrows(), meta.rows.len());
            assert_eq!(shard.ncols(), csr.ncols());
            for (local, global) in meta.rows.clone().enumerate() {
                let (s, e) = (csr.rowptr()[global], csr.rowptr()[global + 1]);
                let (ls, le) = (shard.rowptr()[local], shard.rowptr()[local + 1]);
                assert_eq!(&shard.colind()[ls..le], &csr.colind()[s..e]);
                assert_eq!(&shard.values()[ls..le], &csr.values()[s..e]);
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn roundtrips_banded() {
        roundtrip(
            &CsrMatrix::from_coo(&generators::banded(123, 4)),
            17,
            "banded",
        );
    }

    #[test]
    fn roundtrips_power_law_and_uneven_tail() {
        roundtrip(
            &CsrMatrix::from_coo(&generators::power_law(200, 6, 1.8, 42)),
            64,
            "plaw",
        );
    }

    #[test]
    fn roundtrips_with_empty_shards() {
        // Rows 50.. are entirely empty: the trailing shards carry zero nnz.
        let mut coo = sparseopt_core::prelude::CooMatrix::new(96, 96);
        for i in 0..50 {
            coo.push(i, i, 1.0 + i as f64);
        }
        roundtrip(&CsrMatrix::from_coo(&coo), 16, "empty-tail");
    }

    #[test]
    fn open_rejects_bad_magic_and_version() {
        let path = tmp("magic");
        let csr = CsrMatrix::from_coo(&generators::banded(20, 1));
        write_shard_file(&path, &csr, 10).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(ShardStore::open(&path), Err(ShardError::BadMagic)));

        bytes[0] = SHARD_MAGIC[0];
        bytes[8] = 99;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ShardStore::open(&path),
            Err(ShardError::BadVersion { found: 99 })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_truncation_anywhere() {
        let path = tmp("trunc");
        let csr = CsrMatrix::from_coo(&generators::banded(40, 2));
        write_shard_file(&path, &csr, 8).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut inside the header, inside the table, and inside a payload.
        for cut in [10, 60, bytes.len() - 9] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                matches!(
                    ShardStore::open(&path),
                    Err(ShardError::Corrupt(_) | ShardError::Io(_))
                ),
                "cut at {cut} must be a typed error"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_out_of_bounds_columns() {
        let path = tmp("badcol");
        let csr = CsrMatrix::from_coo(&generators::banded(16, 1));
        write_shard_file(&path, &csr, 16).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // First colind word of the single shard: header + 1 table entry +
        // rowptr(17 × u64).
        let col0 = 48 + 40 + 17 * 8;
        bytes[col0..col0 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let store = ShardStore::open(&path).expect("header still valid");
        assert!(matches!(store.load(0), Err(ShardError::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
    }
}
