//! Fixture `flowtune-obs`: the obs-discipline cases live in `names.rs`.

pub fn seeded() -> u32 {
    flowtune_common::seed()
}
