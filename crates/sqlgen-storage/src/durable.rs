//! Crash-safe file replacement for database images and checkpoints.

use std::fs::File;
use std::io;
use std::path::Path;

/// Replaces `path` atomically and durably. `write` creates and fills a
/// temp sibling; the sibling is fsynced and renamed over `path`, then the
/// parent directory is fsynced so the rename itself survives a crash.
/// Readers that already hold `path` open keep reading the old file, and a
/// crash at any point leaves either the old file or the new one — never a
/// torn mix. The temp file is removed on failure.
pub fn replace_file<T, E: From<io::Error>>(
    path: &Path,
    write: impl FnOnce(&Path) -> Result<T, E>,
) -> Result<T, E> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let out = write(&tmp).and_then(|value| {
        File::open(&tmp)?.sync_all()?;
        std::fs::rename(&tmp, path)?;
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
        Ok(value)
    });
    if out.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaces_in_place_and_cleans_up_on_failure() {
        let dir = std::env::temp_dir().join(format!("sqlgen-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.bin");
        replace_file(&path, |tmp| std::fs::write(tmp, "one")).unwrap();
        replace_file(&path, |tmp| std::fs::write(tmp, "two")).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        // A failing writer leaves the old file and no temp sibling behind.
        let err = replace_file(&path, |tmp| {
            std::fs::write(tmp, "partial")?;
            Err::<(), _>(io::Error::other("boom"))
        });
        assert!(err.is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
