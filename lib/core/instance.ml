type kind = Active_slotted | Busy_interval | Busy_flexible | Busy_preemptive

let kind_name = function
  | Active_slotted -> "active-slotted"
  | Busy_interval -> "busy-interval"
  | Busy_flexible -> "busy-flexible"
  | Busy_preemptive -> "busy-preemptive"

type t =
  | Slotted of Workload.Slotted.t
  | Interval of { g : int; jobs : Workload.Bjob.t list }
  | Flexible of { g : int; jobs : Workload.Bjob.t list }
  | Preemptive of { g : int; jobs : Workload.Bjob.t list }

let kind = function
  | Slotted _ -> Active_slotted
  | Interval _ -> Busy_interval
  | Flexible _ -> Busy_flexible
  | Preemptive _ -> Busy_preemptive
