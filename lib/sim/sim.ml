(* Library interface. [Replay] holds the discrete-event schedule
   replayers (the original Sim module, unchanged); [Rolling] the
   epoch-driven rolling-horizon re-optimization loop, which owns its
   warm state. The include keeps the historical [Sim.run_*] /
   [Sim.report] spellings working until the benchmark moves to the
   [Sim.Replay] names. *)

include Replay
module Replay = Replay
module Rolling = Rolling
