(* Library interface. [Replay] holds the discrete-event schedule
   replayers (the original Sim module, unchanged); [Rolling] the
   epoch-driven rolling-horizon re-optimization loop, which owns its
   warm state. The include keeps every historical [Sim.run_*] /
   [Sim.report] spelling working. *)

include Replay
module Rolling = Rolling
