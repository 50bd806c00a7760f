//! Fixture `flowtune-sched`: its manifest declares a dependency and a
//! dev-dependency that no source file uses.
