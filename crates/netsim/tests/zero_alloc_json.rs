//! `JsonValue::write_compact` / `write_pretty` allocate nothing: numbers
//! are formatted on the stack, strings are copied (or escaped) straight
//! into the output, and indentation comes from a static slice. Given an
//! output `String` that already has room, writing a tree touches the
//! heap zero times. This binary holds this one test, so its counting
//! allocator sees no other test's traffic.

use phastlane_netsim::obs::json::JsonValue;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Set on the test's thread around the writes.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter
// and the const-initialised, destructor-free thread-local allocate
// nothing themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One lab job as its report writes it, with every value kind: integers
/// up to `u64::MAX`, negative ones, integral and fractional floats, a
/// non-finite float, nulls, bools, plain and escaped strings, and
/// nested arrays and objects.
fn job(index: u64) -> JsonValue {
    let s = |t: &str| JsonValue::Str(t.into());
    JsonValue::Obj(vec![
        ("index".into(), JsonValue::Uint(index)),
        ("net".into(), s("optical4")),
        ("pattern".into(), s("uniform")),
        ("rate".into(), JsonValue::Num(0.02 * index as f64)),
        ("benchmark".into(), JsonValue::Null),
        ("intensity".into(), JsonValue::Num(0.0)),
        ("seed".into(), JsonValue::Uint(u64::MAX - index)),
        ("skew".into(), JsonValue::Int(-1_234_567 - index as i64)),
        (
            "latency".into(),
            JsonValue::Obj(vec![
                ("count".into(), JsonValue::Uint(251)),
                ("mean".into(), JsonValue::Num(1.099_601_593_625_498)),
                ("p99".into(), JsonValue::Uint(2)),
                (
                    "buckets".into(),
                    JsonValue::Arr((0..32).map(|b| JsonValue::Uint(b * 7)).collect()),
                ),
            ]),
        ),
        ("energy_pj".into(), JsonValue::Num(20_065.730_266_371_4)),
        ("wall_seconds".into(), JsonValue::Num(f64::NAN)),
        ("timed_out".into(), JsonValue::Bool(false)),
        ("stable".into(), JsonValue::Bool(true)),
        (
            "outcome".into(),
            JsonValue::Obj(vec![
                ("kind".into(), s("panicked")),
                ("message".into(), s("job 3: \"boom\"\n\tat n41 → \u{1}")),
            ]),
        ),
        ("empty".into(), JsonValue::Arr(vec![])),
    ])
}

#[test]
fn writing_a_tree_into_a_sized_buffer_allocates_nothing() {
    let tree = JsonValue::Obj(vec![
        ("name".into(), JsonValue::Str("zero-alloc".into())),
        ("jobs".into(), JsonValue::Arr((0..16).map(job).collect())),
    ]);
    let compact = tree.to_string_compact();
    let pretty = tree.to_string_pretty();
    let mut out = String::with_capacity(compact.len() + pretty.len());

    COUNTING.with(|c| c.set(true));
    tree.write_compact(&mut out);
    tree.write_pretty(&mut out);
    COUNTING.with(|c| c.set(false));

    assert_eq!(out, compact + &pretty, "the writes are the serializer's");
    assert_eq!(ALLOCATIONS.load(Ordering::Relaxed), 0);
}
