//! Process-level probes: a counting allocator, CPU time, peak RSS, and
//! the scratch directory every run writes into.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`], counting `alloc`/`alloc_zeroed`/`realloc`
/// calls (frees are not counted). Installed by the benchmark binary.
pub struct CountingAllocator;

// SAFETY: pure pass-through to `System`; the counter does not touch the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations made by the process so far (0 forever when the
/// binary did not install [`CountingAllocator`]).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU seconds of the whole process (every thread,
/// finished ones included), at microsecond resolution.
pub fn cpu_seconds() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a valid, writable `struct rusage` for 64-bit Linux.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&ru.utime) + secs(&ru.stime)
}

/// Peak resident set of the process (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    cellscope_exec::peak_rss_bytes().map_or(0.0, |b| b as f64 / 1e6)
}

/// Wall and CPU seconds of one timed operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub wall: f64,
    pub cpu: f64,
}

impl std::ops::AddAssign for Sample {
    fn add_assign(&mut self, other: Sample) {
        self.wall += other.wall;
        self.cpu += other.cpu;
    }
}

/// Run `f`, returning its value with the wall and process CPU time it
/// took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Sample) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let value = f();
    let wall = t0.elapsed().as_secs_f64();
    (
        value,
        Sample {
            wall,
            cpu: cpu_seconds() - cpu0,
        },
    )
}

/// Directory under the working directory that holds every file a run
/// writes: feeds, converted feeds and the sharded runner's mask spill.
pub const SCRATCH_ROOT: &str = ".cellbench_tmp";

/// This process's scratch directory; removed (with everything in it)
/// when dropped, so a failing or panicking run cleans up too.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create `.cellbench_tmp/<label>-<pid>` and point `TMPDIR` at it,
    /// so temporary files of the library (the mask spill) land there.
    /// Directories left by runs that were killed (their pid is gone)
    /// are removed first.
    pub fn create(label: &str) -> std::io::Result<ScratchDir> {
        remove_stale(Path::new(SCRATCH_ROOT));
        let path = Path::new(SCRATCH_ROOT).join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        let path = path.canonicalize()?;
        // Single-threaded at this point: no other thread reads the
        // environment concurrently.
        std::env::set_var("TMPDIR", &path);
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves the root in place only while another run still uses it.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

fn remove_stale(root: &Path) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let pid = name
            .to_str()
            .and_then(|n| n.rsplit('-').next()?.parse::<u32>().ok());
        if let Some(pid) = pid {
            if !Path::new(&format!("/proc/{pid}")).exists() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

/// Flush every file in `dir` (and the directory) to disk, so that their
/// write-back does not run during a later timed section.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        std::fs::File::open(entry?.path())?.sync_all()?;
    }
    std::fs::File::open(dir)?.sync_all()
}

/// Total size in bytes of the regular files in `dir` whose name ends
/// with `suffix`.
pub fn dir_bytes(dir: &Path, suffix: &str) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().ends_with(suffix) {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}
