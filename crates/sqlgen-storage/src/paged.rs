//! The disk-backed database: catalog, streaming writer, and read side.
//!
//! A paged database file (see [`crate::pager`] for the page format) is
//! written once, front to back, and read many times:
//!
//! * [`PagedDbWriter`] streams rows table-by-table into heap pages in
//!   bounded memory (one page buffer in flight), then serializes the
//!   catalog — every table's schema plus its page directory — as JSON
//!   into trailing catalog pages and points the header at it.
//! * [`PagedDb`] opens the file, parses the catalog, and serves reads
//!   through a shared [`BufferPool`]; it implements [`DbRead`] so the
//!   executor, sampler, vocabulary and estimator all work against it
//!   unchanged.
//!
//! Rows are addressed by their global row number within a table: the
//! catalog stores per-page row counts, and a prefix-sum binary search
//! maps `row → (page, slot)` without touching disk.

use crate::bufpool::{BufferPool, PoolStats};
use crate::cursor::{join_edges_from_schemas, ColCursor, DbRead, TableRead};
use crate::database::{Database, JoinEdge};
use crate::gen::RowSink;
use crate::heap::{decode_cell, decode_row, HeapPage, HeapSegment, HeapWriter};
use crate::pager::{PageType, Pager, StorageError, PAGE_PAYLOAD};
use crate::schema::TableSchema;
use crate::stats::{TableStats, DEFAULT_STATS_ROW_CAP};
use crate::table::Table;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default buffer-pool budget when callers do not choose one: 4 MiB.
pub const DEFAULT_POOL_BYTES: usize = 4 << 20;

#[derive(Debug, Serialize, Deserialize)]
struct TableCatalog {
    schema: TableSchema,
    pages: Vec<u32>,
    page_rows: Vec<u32>,
    row_count: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Catalog {
    tables: Vec<TableCatalog>,
}

/// Streams a database to disk table-by-table in bounded memory.
pub struct PagedDbWriter {
    pager: Pager,
    current: Option<HeapWriter>,
    done: Vec<HeapSegment>,
}

impl PagedDbWriter {
    pub fn create(path: &Path) -> Result<PagedDbWriter, StorageError> {
        Ok(PagedDbWriter {
            pager: Pager::create(path)?,
            current: None,
            done: Vec::new(),
        })
    }

    /// Starts a new table; the previous one (if any) is finalized first.
    pub fn begin_table(&mut self, schema: TableSchema) -> Result<(), StorageError> {
        self.finish_table()?;
        self.current = Some(HeapWriter::new(schema));
        Ok(())
    }

    pub fn push_row(&mut self, row: &[Value]) -> Result<(), StorageError> {
        let w = self.current.as_mut().expect("push_row before begin_table");
        w.push_row(&mut self.pager, row)
    }

    /// Flushes the in-progress table's trailing page.
    pub fn finish_table(&mut self) -> Result<(), StorageError> {
        if let Some(w) = self.current.take() {
            self.done.push(w.finish(&mut self.pager)?);
        }
        Ok(())
    }

    /// Writes the catalog and header, syncs, and closes the file.
    pub fn finish(mut self) -> Result<(), StorageError> {
        self.finish_table()?;
        // Sorted catalog order mirrors `Database`'s BTreeMap iteration.
        self.done.sort_by(|a, b| a.schema.name.cmp(&b.schema.name));
        let catalog = Catalog {
            tables: self
                .done
                .into_iter()
                .map(|seg| TableCatalog {
                    schema: seg.schema,
                    pages: seg.pages,
                    page_rows: seg.page_rows,
                    row_count: seg.row_count,
                })
                .collect(),
        };
        let bytes = serde_json::to_string(&catalog)
            .map_err(|e| StorageError::Corrupt(format!("catalog serialize: {e:?}")))?
            .into_bytes();
        let mut first_page = None;
        for chunk in bytes.chunks(PAGE_PAYLOAD) {
            let no = self.pager.append_page(PageType::Catalog, chunk)?;
            first_page.get_or_insert(no);
        }
        let first = match first_page {
            Some(no) => no,
            // Empty catalog still needs a page to point at.
            None => self.pager.append_page(PageType::Catalog, b"")?,
        };
        self.pager.write_header(first, bytes.len() as u64)?;
        self.pager.sync()
    }
}

impl RowSink for PagedDbWriter {
    type Error = StorageError;

    fn begin_table(&mut self, schema: TableSchema) -> Result<(), StorageError> {
        PagedDbWriter::begin_table(self, schema)
    }

    fn push_row(&mut self, row: Vec<Value>) -> Result<(), StorageError> {
        PagedDbWriter::push_row(self, &row)
    }

    fn finish_table(&mut self) -> Result<(), StorageError> {
        PagedDbWriter::finish_table(self)
    }
}

/// One table of an open paged database.
pub struct PagedTable {
    pool: Arc<BufferPool>,
    schema: TableSchema,
    pages: Vec<u32>,
    page_rows: Vec<u32>,
    /// `prefix[i]` = rows on pages before page `i`; `prefix.len() ==
    /// pages.len() + 1` so the last entry is the row count.
    prefix: Vec<u64>,
    row_count: u64,
}

impl PagedTable {
    /// Maps a global row number to `(page index, slot)`.
    fn locate(&self, row: usize) -> (usize, usize) {
        let row = row as u64;
        assert!(
            row < self.row_count,
            "row {row} out of range ({})",
            self.row_count
        );
        let page_idx = self.prefix.partition_point(|&p| p <= row) - 1;
        (page_idx, (row - self.prefix[page_idx]) as usize)
    }

    /// Fallible cell read (I/O or corruption surface as errors).
    pub fn try_value(&self, col: usize, row: usize) -> Result<Value, StorageError> {
        let (page_idx, slot) = self.locate(row);
        let buf = self.pool.get(self.pages[page_idx])?;
        let page = HeapPage::parse(&buf)?;
        Ok(decode_cell(&self.schema, page.row_bytes(slot), col))
    }

    /// Fallible full-row read.
    pub fn try_row(&self, row: usize) -> Result<Vec<Value>, StorageError> {
        let (page_idx, slot) = self.locate(row);
        let buf = self.pool.get(self.pages[page_idx])?;
        let page = HeapPage::parse(&buf)?;
        Ok(decode_row(&self.schema, page.row_bytes(slot)))
    }
}

impl TableRead for PagedTable {
    type Cursor<'c> = PagedColCursor<'c>;

    fn schema(&self) -> &TableSchema {
        &self.schema
    }

    fn row_count(&self) -> usize {
        self.row_count as usize
    }

    fn value(&self, col: usize, row: usize) -> Value {
        self.try_value(col, row).unwrap_or_else(|e| {
            panic!(
                "paged read failed for {}.{col}@{row}: {e}",
                self.schema.name
            )
        })
    }

    fn scan_column(&self, col: usize) -> PagedColCursor<'_> {
        PagedColCursor {
            table: self,
            col,
            page_idx: 0,
            slot: 0,
            page: None,
        }
    }
}

/// Sequential column scan over heap pages; pins one page at a time (the
/// held `Arc` is the pin), so a full-table scan through a tiny pool
/// works and evicts cleanly behind itself.
pub struct PagedColCursor<'t> {
    table: &'t PagedTable,
    col: usize,
    page_idx: usize,
    slot: usize,
    page: Option<Arc<Vec<u8>>>,
}

impl ColCursor for PagedColCursor<'_> {
    fn next_value(&mut self) -> Option<Value> {
        loop {
            if self.page_idx >= self.table.pages.len() {
                return None;
            }
            let rows = self.table.page_rows[self.page_idx] as usize;
            if self.slot >= rows {
                self.page = None;
                self.page_idx += 1;
                self.slot = 0;
                continue;
            }
            if self.page.is_none() {
                let buf = self
                    .table
                    .pool
                    .get(self.table.pages[self.page_idx])
                    .unwrap_or_else(|e| {
                        panic!("paged scan failed for {}: {e}", self.table.schema.name)
                    });
                self.page = Some(buf);
            }
            let buf = self.page.as_ref().unwrap();
            let page = HeapPage::parse(buf).unwrap_or_else(|e| {
                panic!("paged scan failed for {}: {e}", self.table.schema.name)
            });
            let v = decode_cell(&self.table.schema, page.row_bytes(self.slot), self.col);
            self.slot += 1;
            return Some(v);
        }
    }
}

/// An open paged database: catalog + shared buffer pool.
pub struct PagedDb {
    path: PathBuf,
    pool: Arc<BufferPool>,
    tables: BTreeMap<String, PagedTable>,
}

impl PagedDb {
    /// Opens a database file with a buffer pool of `pool_bytes` (frame
    /// count = `pool_bytes / PAGE_SIZE`, clamped to the pool minimum).
    pub fn open(path: &Path, pool_bytes: usize) -> Result<PagedDb, StorageError> {
        let (mut pager, header) = Pager::open(path)?;
        // Read catalog pages through the raw pager (checksum-verified);
        // they are parsed once and never needed again.
        let mut bytes = Vec::with_capacity(header.catalog_bytes as usize);
        let mut page_no = header.catalog_page;
        while (bytes.len() as u64) < header.catalog_bytes {
            let page = pager.read_page_checked(page_no)?;
            let len = u32::from_le_bytes(page[8..12].try_into().unwrap()) as usize;
            bytes.extend_from_slice(
                &page[crate::pager::PAGE_HEADER..crate::pager::PAGE_HEADER + len],
            );
            page_no += 1;
        }
        bytes.truncate(header.catalog_bytes as usize);
        let text = String::from_utf8(bytes)
            .map_err(|e| StorageError::Corrupt(format!("catalog not utf-8: {e}")))?;
        let catalog: Catalog = serde_json::from_str(&text)
            .map_err(|e| StorageError::Corrupt(format!("catalog parse: {e:?}")))?;
        let frames = pool_bytes / crate::pager::PAGE_SIZE;
        let pool = Arc::new(BufferPool::new(pager, frames));
        let mut tables = BTreeMap::new();
        for t in catalog.tables {
            let mut prefix = Vec::with_capacity(t.pages.len() + 1);
            let mut acc = 0u64;
            prefix.push(0);
            for &r in &t.page_rows {
                acc += r as u64;
                prefix.push(acc);
            }
            if acc != t.row_count || t.pages.len() != t.page_rows.len() {
                return Err(StorageError::Corrupt(format!(
                    "catalog row accounting mismatch for table {}",
                    t.schema.name
                )));
            }
            tables.insert(
                t.schema.name.clone(),
                PagedTable {
                    pool: pool.clone(),
                    schema: t.schema,
                    pages: t.pages,
                    page_rows: t.page_rows,
                    prefix,
                    row_count: t.row_count,
                },
            );
        }
        Ok(PagedDb {
            path: path.to_path_buf(),
            pool,
            tables,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    pub fn reset_pool_stats(&self) {
        self.pool.reset_stats()
    }

    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> u64 {
        self.tables.values().map(|t| t.row_count).sum()
    }

    /// Walks every heap page of every table through the pool, verifying
    /// checksums (the pool validates on fill). Detects torn pages.
    pub fn verify(&self) -> Result<(), StorageError> {
        for t in self.tables.values() {
            for &p in &t.pages {
                let buf = self.pool.get(p)?;
                HeapPage::parse(&buf)?;
            }
        }
        Ok(())
    }

    /// Per-table statistics through the read interface, for estimator
    /// construction without materializing tables (columns over
    /// [`DEFAULT_STATS_ROW_CAP`] rows are stride-sampled).
    pub fn table_stats(&self) -> Vec<TableStats> {
        self.tables
            .values()
            .map(|t| TableStats::build_read(t, DEFAULT_STATS_ROW_CAP))
            .collect()
    }

    /// Materializes the whole database in memory (serving cold-start:
    /// load once from disk instead of regenerating from seed).
    pub fn load_database(&self) -> Result<Database, StorageError> {
        let mut db = Database::new();
        for t in self.tables.values() {
            let mut table = Table::new(t.schema.clone());
            for (pi, &page_no) in t.pages.iter().enumerate() {
                let buf = self.pool.get(page_no)?;
                let page = HeapPage::parse(&buf)?;
                for slot in 0..t.page_rows[pi] as usize {
                    table.push_row(decode_row(&t.schema, page.row_bytes(slot)));
                }
            }
            db.add_table(table);
        }
        Ok(db)
    }
}

impl DbRead for PagedDb {
    type Table = PagedTable;

    fn read_table(&self, name: &str) -> Option<&PagedTable> {
        self.tables.get(name)
    }

    fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    fn join_edges(&self, table: &str) -> Vec<JoinEdge> {
        join_edges_from_schemas(self.tables.values().map(|t| &t.schema), table)
    }
}

/// Streams a database image to `path` without ever exposing a partial
/// one: `fill` writes the tables into a temp sibling, [`PagedDbWriter::finish`]
/// adds the catalog and syncs it, and the image is renamed over `path`
/// (see [`crate::durable::replace_file`]). A [`PagedDb`] already open on
/// `path` keeps reading the old image.
pub fn write_image(
    path: &Path,
    fill: impl FnOnce(&mut PagedDbWriter) -> Result<(), StorageError>,
) -> Result<(), StorageError> {
    crate::durable::replace_file(path, |tmp| {
        let mut w = PagedDbWriter::create(tmp)?;
        fill(&mut w)?;
        w.finish()
    })
}

/// Persists an in-memory [`Database`] as a paged image.
pub fn save_database(db: &Database, path: &Path) -> Result<(), StorageError> {
    write_image(path, |w| {
        for name in db.table_names() {
            let table = db.table(name).expect("listed table exists");
            w.begin_table(table.schema.clone())?;
            let mut row = Vec::with_capacity(table.schema.columns.len());
            for r in 0..table.row_count() {
                row.clear();
                for c in &table.columns {
                    row.push(c.get(r));
                }
                w.push_row(&row)?;
            }
            w.finish_table()?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;
    use std::sync::atomic::{AtomicU64, Ordering};

    static UNIQ: AtomicU64 = AtomicU64::new(0);

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "sqlgen-paged-{tag}-{}-{}.db",
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_db(rows: i64) -> Database {
        let a = TableSchema::new("a")
            .with_column(ColumnDef::new("id", DataType::Int))
            .with_primary_key()
            .with_column(ColumnDef::new("x", DataType::Float))
            .with_column(ColumnDef::categorical("tag", DataType::Text));
        let b = TableSchema::new("b")
            .with_column(ColumnDef::new("a_id", DataType::Int))
            .with_foreign_key("a", "id")
            .with_column(ColumnDef::new("y", DataType::Int));
        let mut db = Database::new();
        let mut ta = Table::new(a);
        for i in 0..rows {
            ta.push_row(vec![
                Value::Int(i),
                Value::Float(i as f64 * 0.25),
                Value::Text(format!("t{}", i % 7)),
            ]);
        }
        let mut tb = Table::new(b);
        for i in 0..rows * 2 {
            tb.push_row(vec![Value::Int(i % rows), Value::Int(i * 3)]);
        }
        db.add_table(ta);
        db.add_table(tb);
        db
    }

    #[test]
    fn save_open_roundtrip_is_bitwise_identical() {
        let db = sample_db(3000);
        let path = temp_path("roundtrip");
        save_database(&db, &path).unwrap();
        // Tiny pool (minimum frames) to force constant eviction.
        let paged = PagedDb::open(&path, 0).unwrap();
        assert_eq!(paged.table_names(), db.table_names());
        assert_eq!(paged.total_rows() as usize, db.total_rows());
        for name in db.table_names() {
            let mem = db.table(name).unwrap();
            let disk = paged.read_table(name).unwrap();
            assert_eq!(TableRead::row_count(disk), mem.row_count());
            assert_eq!(format!("{:?}", disk.schema()), format!("{:?}", mem.schema));
            for r in 0..mem.row_count() {
                for c in 0..mem.schema.columns.len() {
                    let a = mem.columns[c].get(r);
                    let b = disk.value(c, r);
                    match (&a, &b) {
                        (Value::Float(x), Value::Float(y)) => {
                            assert_eq!(x.to_bits(), y.to_bits())
                        }
                        _ => assert_eq!(a, b),
                    }
                }
            }
        }
        let stats = paged.pool_stats();
        assert!(stats.evictions > 0, "tiny pool must evict");
        assert!(paged.verify().is_ok());
        std::fs::remove_file(&path).ok();
    }

    /// Rebuilding an image path (what `sqlgen builddb` does) must not
    /// disturb a reader that has the old image open: the new image is
    /// renamed into place, so the old one stays readable page by page
    /// through a constantly evicting pool, and the new one verifies.
    #[test]
    fn rebuild_leaves_open_readers_on_the_old_image() {
        let path = temp_path("rebuild");
        save_database(&sample_db(3000), &path).unwrap();
        let old = PagedDb::open(&path, 0).unwrap();
        save_database(&sample_db(40), &path).unwrap();

        let a = old.read_table("a").unwrap();
        assert_eq!(TableRead::row_count(a), 3000);
        for r in 0..3000 {
            assert_eq!(a.value(1, r), Value::Float(r as f64 * 0.25));
        }
        assert!(old.verify().is_ok());

        let new = PagedDb::open(&path, DEFAULT_POOL_BYTES).unwrap();
        assert!(new.verify().is_ok());
        assert_eq!(TableRead::row_count(new.read_table("a").unwrap()), 40);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        assert!(!tmp.exists(), "temp image left behind");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cursor_scan_matches_random_access() {
        let db = sample_db(500);
        let path = temp_path("cursor");
        save_database(&db, &path).unwrap();
        let paged = PagedDb::open(&path, DEFAULT_POOL_BYTES).unwrap();
        let t = paged.read_table("b").unwrap();
        let mut cur = t.scan_column(1);
        let mut n = 0usize;
        while let Some(v) = cur.next_value() {
            assert_eq!(v, t.value(1, n));
            n += 1;
        }
        assert_eq!(n, TableRead::row_count(t));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn join_edges_match_in_memory() {
        let db = sample_db(50);
        let path = temp_path("edges");
        save_database(&db, &path).unwrap();
        let paged = PagedDb::open(&path, DEFAULT_POOL_BYTES).unwrap();
        for t in ["a", "b"] {
            assert_eq!(paged.join_edges(t), db.join_edges(t));
            assert_eq!(
                paged.join_edge_between(t, "a"),
                db.join_edge_between(t, "a")
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_database_reconstructs_identical_image() {
        let db = sample_db(800);
        let path = temp_path("load");
        save_database(&db, &path).unwrap();
        let paged = PagedDb::open(&path, DEFAULT_POOL_BYTES).unwrap();
        let loaded = paged.load_database().unwrap();
        assert_eq!(format!("{db:?}"), format!("{loaded:?}"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn table_stats_match_in_memory_build() {
        let db = sample_db(1200);
        let path = temp_path("stats");
        save_database(&db, &path).unwrap();
        let paged = PagedDb::open(&path, DEFAULT_POOL_BYTES).unwrap();
        let disk_stats = paged.table_stats();
        let mem_stats: Vec<TableStats> = db.tables().map(TableStats::build).collect();
        assert_eq!(
            format!("{disk_stats:?}"),
            format!("{mem_stats:?}"),
            "stats under the row cap must be bit-identical"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_heap_page_fails_verify() {
        use std::io::{Seek, SeekFrom, Write};
        let db = sample_db(2000);
        let path = temp_path("corrupt");
        save_database(&db, &path).unwrap();
        {
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            // Page 1 is the first heap page; flip bytes mid-payload.
            f.seek(SeekFrom::Start(crate::pager::PAGE_SIZE as u64 + 512))
                .unwrap();
            f.write_all(&[0x5a; 16]).unwrap();
        }
        let paged = PagedDb::open(&path, DEFAULT_POOL_BYTES).unwrap();
        assert!(matches!(paged.verify(), Err(StorageError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }
}
