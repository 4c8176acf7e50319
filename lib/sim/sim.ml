(* Library interface. [Replay] holds the discrete-event schedule
   replayers (the original Sim module, unchanged); [Rolling] the
   epoch-driven rolling-horizon re-optimization loop, which owns its
   warm state. The include keeps the historical [Sim.*] spellings of
   [Replay]'s names working for one caller: the benchmark's
   [perfbench/sim_rolling.ml], which reads [Sim.violations] and
   [Sim.total_energy]. Everything else spells them [Sim.Replay.*]; the
   include goes when the benchmark moves to those names. *)

include Replay
module Replay = Replay
module Rolling = Rolling
