type t =
  | Spo
  | Sop
  | Pso
  | Pos
  | Osp
  | Ops

let all = [ Spo; Sop; Pso; Pos; Osp; Ops ]

let name = function
  | Spo -> "spo"
  | Sop -> "sop"
  | Pso -> "pso"
  | Pos -> "pos"
  | Osp -> "osp"
  | Ops -> "ops"

let of_name = function
  | "spo" -> Some Spo
  | "sop" -> Some Sop
  | "pso" -> Some Pso
  | "pos" -> Some Pos
  | "osp" -> Some Osp
  | "ops" -> Some Ops
  | _ -> None

let for_shape = function
  | Pattern.All -> Spo       (* membership goes through the shared (s,p) o-list *)
  | Pattern.Sp -> Spo
  | Pattern.So -> Sop
  | Pattern.Po -> Pos
  | Pattern.S -> Spo
  | Pattern.P -> Pso
  | Pattern.O -> Osp
  | Pattern.None_bound -> Spo

let positions = function
  | Spo -> [ Pattern.Subj; Pattern.Pred; Pattern.Obj ]
  | Sop -> [ Pattern.Subj; Pattern.Obj; Pattern.Pred ]
  | Pso -> [ Pattern.Pred; Pattern.Subj; Pattern.Obj ]
  | Pos -> [ Pattern.Pred; Pattern.Obj; Pattern.Subj ]
  | Osp -> [ Pattern.Obj; Pattern.Subj; Pattern.Pred ]
  | Ops -> [ Pattern.Obj; Pattern.Pred; Pattern.Subj ]

let twin = function
  | Spo -> Pso
  | Pso -> Spo
  | Sop -> Osp
  | Osp -> Sop
  | Pos -> Ops
  | Ops -> Pos

type id_triple = Dict.Term_dict.id_triple

let first = function
  | Spo | Sop -> fun (tr : id_triple) -> tr.s
  | Pso | Pos -> fun tr -> tr.p
  | Osp | Ops -> fun tr -> tr.o

let second = function
  | Pso | Osp -> fun (tr : id_triple) -> tr.s
  | Spo | Ops -> fun tr -> tr.p
  | Sop | Pos -> fun tr -> tr.o

let third = function
  | Pos | Ops -> fun (tr : id_triple) -> tr.s
  | Sop | Osp -> fun tr -> tr.p
  | Spo | Pso -> fun tr -> tr.o

(* One hand-written comparator per ordering: sorts run on these, so a
   generic role-dispatching comparison would cost in the inner loop. *)
let cmp3 a1 b1 a2 b2 a3 b3 =
  let c = Int.compare a1 b1 in
  if c <> 0 then c
  else
    let c = Int.compare a2 b2 in
    if c <> 0 then c else Int.compare a3 b3

let compare_triples = function
  | Spo -> fun (a : id_triple) (b : id_triple) -> cmp3 a.s b.s a.p b.p a.o b.o
  | Sop -> fun a b -> cmp3 a.s b.s a.o b.o a.p b.p
  | Pso -> fun a b -> cmp3 a.p b.p a.s b.s a.o b.o
  | Pos -> fun a b -> cmp3 a.p b.p a.o b.o a.s b.s
  | Osp -> fun a b -> cmp3 a.o b.o a.s b.s a.p b.p
  | Ops -> fun a b -> cmp3 a.o b.o a.p b.p a.s b.s

let compare = Stdlib.compare

let equal a b = a = b

let pp ppf t = Format.pp_print_string ppf (name t)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
