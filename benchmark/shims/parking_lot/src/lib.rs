//! Empty stand-in for `parking_lot`: `servet-sim` declares the dependency and uses nothing from it.
