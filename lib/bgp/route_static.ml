module Csr = Nsutil.Csr
module I32 = Nsutil.I32
module Graph = Asgraph.Graph

type dest_info = {
  dest : int;
  cls : Bytes.t;
  len : Bytes.t;
  tie_off : I32.t;
  tie : I32.t;
  tie_rev_off : I32.t;
  tie_rev : I32.t;
  order : I32.t;
  tb : Policy.tiebreak;
  max_len : int;
}

let inf = max_int
let max_path_len = 254

(* Direct element primitives over [I32] Bigarrays, used by every hot
   loop in this file. The classic (non-flambda) compiler does not
   inline the [I32] accessors across modules, and the three-stage
   compute and the repair kernels touch enough int32 elements that
   out-of-line calls triple their cost; same-unit helpers specialize
   down to single loads and stores. *)
let ba_get (a : I32.t) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)
let ba_set (a : I32.t) i v = Bigarray.Array1.unsafe_set a i (Int32.of_int v)

let c_self = Policy.class_to_char Policy.Self
let c_cust = Policy.class_to_char Policy.Via_customer
let c_peer = Policy.class_to_char Policy.Via_peer
let c_prov = Policy.class_to_char Policy.Via_provider
let c_unreach = Policy.class_to_char Policy.Unreachable

(* Stable insertion sort of one tie row by static tiebreak key: among
   equal keys the earlier-inserted member stays first, so taking the
   row head reproduces exactly the legacy strictly-less minimum scan
   over insertion order. Rows are tiny (mean 1-3 members); insertion
   sort beats anything with allocation here. *)
let sort_row tb i members keys len =
  for a = 0 to len - 1 do
    keys.(a) <- Policy.tiebreak_key tb i members.(a)
  done;
  for a = 1 to len - 1 do
    let m = members.(a) and k = keys.(a) in
    let b = ref a in
    while !b > 0 && keys.(!b - 1) > k do
      members.(!b) <- members.(!b - 1);
      keys.(!b) <- keys.(!b - 1);
      decr b
    done;
    members.(!b) <- m;
    keys.(!b) <- k
  done

(* All scratch the three-stage computation touches, hoisted into a
   reusable builder: a streaming store computes tens of thousands of
   records per engine round at 36K+ nodes, and per-call allocation of
   the O(n) temporaries would make the sweep GC-bound. A builder is
   single-domain state — the engine keeps one per worker. In transient
   mode the *output* record also lives in builder-owned buffers (valid
   only until the builder's next transient compute, and must never be
   inserted into a store); persistent mode allocates the record fresh
   and reuses only the scratch. *)
type builder = {
  bd_n : int;
  bd_l1 : int array;
  bd_bl : int array;
  bd_queue : int array;  (* stage-1 BFS ring; each node enqueues once *)
  bd_bq : Nsutil.Bucketq.t;
  bd_done : Bytes.t;
  bd_tie_count : int array;
  bd_rev_count : int array;
  bd_counts : int array;  (* counting-sort buckets over path lengths *)
  bd_starts : int array;
  bd_order_full : int array;
  mutable bd_members : int array;  (* tie-row sort buffers, grown on demand *)
  mutable bd_keys : int array;
  (* Transient-record output buffers. *)
  bd_cls : Bytes.t;
  bd_len : Bytes.t;
  bd_tie_off : I32.t;  (* n + 1 *)
  bd_tie_rev_off : I32.t;  (* n + 1 *)
  mutable bd_tie : I32.t;  (* grown on demand *)
  mutable bd_tie_rev : I32.t;
  bd_order : I32.t;  (* n *)
}

let order_buckets = max_path_len + 2

let make_builder n =
  {
    bd_n = n;
    bd_l1 = Array.make n inf;
    bd_bl = Array.make n inf;
    bd_queue = Array.make (max 1 n) 0;
    bd_bq = Nsutil.Bucketq.create ~max_key:(max_path_len + 1);
    bd_done = Bytes.make n '\000';
    bd_tie_count = Array.make n 0;
    bd_rev_count = Array.make n 0;
    bd_counts = Array.make order_buckets 0;
    bd_starts = Array.make order_buckets 0;
    bd_order_full = Array.make n 0;
    bd_members = [||];
    bd_keys = [||];
    bd_cls = Bytes.make n c_unreach;
    bd_len = Bytes.make n '\000';
    bd_tie_off = I32.create (n + 1);
    bd_tie_rev_off = I32.create (n + 1);
    bd_tie = I32.create 0;
    bd_tie_rev = I32.create 0;
    bd_order = I32.create n;
  }

(* Three-stage Gao-Rexford route computation (Appendix A / [15]):
   customer routes climb provider links from d; peer routes add one
   peering hop onto a customer route; provider routes descend customer
   links from any already-routed node, in ascending length order. The
   adjacency CSR arrays are walked by direct offset-range loops — no
   per-node closures on this path. *)
let compute_with ?(tiebreak = Policy.Lowest_id) ?(transient = false) bd g d =
  let n = Graph.n g in
  if bd.bd_n <> n then
    invalid_arg
      (Printf.sprintf "Route_static.compute_with: builder for %d nodes, graph has %d"
         bd.bd_n n);
  let cust_off = g.Graph.customers.Csr.offsets and cust_dat = g.Graph.customers.Csr.data in
  let prov_off = g.Graph.providers.Csr.offsets and prov_dat = g.Graph.providers.Csr.data in
  let peer_off = g.Graph.peers.Csr.offsets and peer_dat = g.Graph.peers.Csr.data in
  let l1 = bd.bd_l1 in
  let bl = bd.bd_bl in
  Array.fill l1 0 n inf;
  Array.fill bl 0 n inf;
  let cls =
    if transient then begin
      Bytes.fill bd.bd_cls 0 n c_unreach;
      bd.bd_cls
    end
    else Bytes.make n c_unreach
  in
  (* Stage 1: customer-route lengths. *)
  l1.(d) <- 0;
  let queue = bd.bd_queue in
  queue.(0) <- d;
  let q_head = ref 0 and q_tail = ref 1 in
  while !q_head < !q_tail do
    let x = queue.(!q_head) in
    incr q_head;
    for k = ba_get prov_off x to ba_get prov_off (x + 1) - 1 do
      let p = ba_get prov_dat k in
      if l1.(p) = inf then begin
        l1.(p) <- l1.(x) + 1;
        queue.(!q_tail) <- p;
        incr q_tail
      end
    done
  done;
  Bytes.set cls d c_self;
  bl.(d) <- 0;
  for i = 0 to n - 1 do
    if i <> d && l1.(i) < inf then begin
      bl.(i) <- l1.(i);
      Bytes.set cls i c_cust
    end
  done;
  (* Stage 2: peer routes for nodes without a customer route. *)
  for i = 0 to n - 1 do
    if bl.(i) = inf then begin
      let best = ref inf in
      for k = ba_get peer_off i to ba_get peer_off (i + 1) - 1 do
        let p = ba_get peer_dat k in
        if l1.(p) < !best then best := l1.(p)
      done;
      if !best < inf then begin
        bl.(i) <- !best + 1;
        Bytes.set cls i c_peer
      end
    end
  done;
  (* Stage 3: provider routes, in ascending final length. *)
  let bq = bd.bd_bq in
  Nsutil.Bucketq.reset bq;
  let done_ = bd.bd_done in
  Bytes.fill done_ 0 n '\000';
  for i = 0 to n - 1 do
    if bl.(i) < inf then Nsutil.Bucketq.push bq ~key:bl.(i) i
  done;
  let rec drain () =
    match Nsutil.Bucketq.pop bq with
    | None -> ()
    | Some (key, x) ->
        if Bytes.get done_ x = '\000' then begin
          Bytes.set done_ x '\001';
          if bl.(x) = inf then begin
            bl.(x) <- key;
            Bytes.set cls x c_prov
          end;
          let next_key = key + 1 in
          if next_key <= max_path_len then
            for k = ba_get cust_off x to ba_get cust_off (x + 1) - 1 do
              let c = ba_get cust_dat k in
              if Bytes.get done_ c = '\000' && bl.(c) = inf then
                Nsutil.Bucketq.push bq ~key:next_key c
            done
        end;
        drain ()
  in
  drain ();
  (* Tiebreak sets, two-pass counting layout: count members per node,
     prefix-sum into offsets, then fill — no cons-list churn. *)
  let exports_customer_route j =
    let c = Bytes.unsafe_get cls j in
    c = c_self || c = c_cust
  in
  let tie_count = bd.bd_tie_count in
  Array.fill tie_count 0 n 0;
  let count_tie i =
    let want = bl.(i) - 1 in
    let cl = Bytes.unsafe_get cls i in
    let acc = ref 0 in
    if cl = c_cust then
      for k = ba_get cust_off i to ba_get cust_off (i + 1) - 1 do
        let c = ba_get cust_dat k in
        if bl.(c) = want && exports_customer_route c then incr acc
      done
    else if cl = c_peer then
      for k = ba_get peer_off i to ba_get peer_off (i + 1) - 1 do
        let p = ba_get peer_dat k in
        if bl.(p) = want && exports_customer_route p then incr acc
      done
    else
      for k = ba_get prov_off i to ba_get prov_off (i + 1) - 1 do
        if bl.(ba_get prov_dat k) = want then incr acc
      done;
    !acc
  in
  for i = 0 to n - 1 do
    if i <> d && bl.(i) < inf then tie_count.(i) <- count_tie i
  done;
  let tie_off = if transient then bd.bd_tie_off else I32.create (n + 1) in
  let total = ref 0 in
  for i = 0 to n - 1 do
    I32.unsafe_set tie_off i !total;
    total := !total + tie_count.(i)
  done;
  I32.unsafe_set tie_off n !total;
  let tie =
    if transient then begin
      if I32.length bd.bd_tie < !total then
        bd.bd_tie <- I32.create (max !total (2 * I32.length bd.bd_tie));
      Bigarray.Array1.sub bd.bd_tie 0 !total
    end
    else I32.create !total
  in
  let fill_tie i =
    let want = bl.(i) - 1 in
    let cl = Bytes.unsafe_get cls i in
    let w = ref (I32.unsafe_get tie_off i) in
    let put v =
      I32.unsafe_set tie !w v;
      incr w
    in
    if cl = c_cust then
      for k = ba_get cust_off i to ba_get cust_off (i + 1) - 1 do
        let c = ba_get cust_dat k in
        if bl.(c) = want && exports_customer_route c then put c
      done
    else if cl = c_peer then
      for k = ba_get peer_off i to ba_get peer_off (i + 1) - 1 do
        let p = ba_get peer_dat k in
        if bl.(p) = want && exports_customer_route p then put p
      done
    else
      for k = ba_get prov_off i to ba_get prov_off (i + 1) - 1 do
        let p = ba_get prov_dat k in
        if bl.(p) = want then put p
      done
  in
  for i = 0 to n - 1 do
    if tie_count.(i) > 0 then fill_tie i
  done;
  (* Pre-sort each row by static tiebreak key (stable), so the forest
     kernel's Pass 1 takes the first eligible member instead of
     running a key-compare chain per member. *)
  let max_row = Array.fold_left max 0 tie_count in
  if max_row > 1 then begin
    if Array.length bd.bd_members < max_row then begin
      bd.bd_members <- Array.make (max max_row (2 * Array.length bd.bd_members)) 0;
      bd.bd_keys <- Array.make (Array.length bd.bd_members) 0
    end;
    let members = bd.bd_members in
    let keys = bd.bd_keys in
    for i = 0 to n - 1 do
      let row = tie_count.(i) in
      if row > 1 then begin
        let off = I32.unsafe_get tie_off i in
        for k = 0 to row - 1 do
          members.(k) <- I32.unsafe_get tie (off + k)
        done;
        sort_row tiebreak i members keys row;
        for k = 0 to row - 1 do
          I32.unsafe_set tie (off + k) members.(k)
        done
      end
    done
  end;
  (* Stable counting sort by length ({!Nsutil.Order.by_small_key}
     inlined over the builder's bucket scratch): reachable nodes in
     ascending (length, id), unreachable ones in the overflow bucket
     at the end. *)
  let order_full = bd.bd_order_full in
  let counts = bd.bd_counts and starts = bd.bd_starts in
  let bucket i =
    let v = bl.(i) in
    if v >= 0 && v <= max_path_len then v else order_buckets - 1
  in
  Array.fill counts 0 order_buckets 0;
  for i = 0 to n - 1 do
    counts.(bucket i) <- counts.(bucket i) + 1
  done;
  starts.(0) <- 0;
  for b = 1 to order_buckets - 1 do
    starts.(b) <- starts.(b - 1) + counts.(b - 1)
  done;
  for i = 0 to n - 1 do
    let b = bucket i in
    order_full.(starts.(b)) <- i;
    starts.(b) <- starts.(b) + 1
  done;
  (* Trim unreachable nodes (sorted last) off the order. *)
  let reachable_count =
    Array.fold_left (fun acc v -> if v < inf then acc + 1 else acc) 0 bl
  in
  let order =
    if transient then Bigarray.Array1.sub bd.bd_order 0 reachable_count
    else I32.create reachable_count
  in
  for k = 0 to reachable_count - 1 do
    I32.unsafe_set order k order_full.(k)
  done;
  (* Reverse tiebreak adjacency: row [j] lists every node whose tie
     set contains [j], ordered by DESCENDING position in [order] — the
     exact order Pass 2 of the forest kernel folds child subtrees into
     parents, so an incremental repair that re-sums one parent's
     subtree walks the same addends in the same order (bit-identical
     floats). *)
  let rev_count = bd.bd_rev_count in
  Array.fill rev_count 0 n 0;
  for k = 0 to !total - 1 do
    let j = I32.unsafe_get tie k in
    rev_count.(j) <- rev_count.(j) + 1
  done;
  let tie_rev_off = if transient then bd.bd_tie_rev_off else I32.create (n + 1) in
  let rt = ref 0 in
  for i = 0 to n - 1 do
    I32.unsafe_set tie_rev_off i !rt;
    rt := !rt + rev_count.(i)
  done;
  I32.unsafe_set tie_rev_off n !rt;
  let tie_rev =
    if transient then begin
      (* [!rt = !total]: the reverse CSR is a permutation of the tie
         CSR's members. *)
      if I32.length bd.bd_tie_rev < !rt then
        bd.bd_tie_rev <- I32.create (max !rt (2 * I32.length bd.bd_tie_rev));
      Bigarray.Array1.sub bd.bd_tie_rev 0 !rt
    end
    else I32.create !rt
  in
  let cursor = rev_count in
  for i = 0 to n - 1 do
    cursor.(i) <- I32.unsafe_get tie_rev_off i
  done;
  for k = reachable_count - 1 downto 1 do
    let i = order_full.(k) in
    for p = I32.unsafe_get tie_off i to I32.unsafe_get tie_off (i + 1) - 1 do
      let j = I32.unsafe_get tie p in
      I32.unsafe_set tie_rev cursor.(j) i;
      cursor.(j) <- cursor.(j) + 1
    done
  done;
  let max_len = Array.fold_left (fun acc v -> if v < inf then max acc v else acc) 0 bl in
  let len =
    if transient then begin
      Bytes.fill bd.bd_len 0 n '\000';
      bd.bd_len
    end
    else Bytes.make n '\000'
  in
  for i = 0 to n - 1 do
    if bl.(i) < inf then Bytes.set len i (Char.chr bl.(i))
  done;
  { dest = d; cls; len; tie_off; tie; tie_rev_off; tie_rev; order; tb = tiebreak; max_len }

let compute ?tiebreak g d = compute_with ?tiebreak (make_builder (Graph.n g)) g d

(* Deep copy, for promoting a transient record into a store slot. *)
let info_copy info =
  let i32_copy (a : I32.t) =
    let c = I32.create (I32.length a) in
    I32.blit ~src:a ~src_pos:0 ~dst:c ~dst_pos:0 ~len:(I32.length a);
    c
  in
  {
    info with
    cls = Bytes.copy info.cls;
    len = Bytes.copy info.len;
    tie_off = i32_copy info.tie_off;
    tie = i32_copy info.tie;
    tie_rev_off = i32_copy info.tie_rev_off;
    tie_rev = i32_copy info.tie_rev;
    order = i32_copy info.order;
  }

let class_of info i = Policy.class_of_char (Bytes.get info.cls i)

let reachable info i = Bytes.get info.cls i <> c_unreach

let length_of info i =
  if not (reachable info i) then
    invalid_arg (Printf.sprintf "Route_static.length_of: %d unreachable" i)
  else Char.code (Bytes.get info.len i)

let sorted_for info tiebreak = Policy.tiebreak_equal info.tb tiebreak

(* ------------------------------------------------------------------ *)
(* Per-destination accessors over the compact layout. *)

let order_length info = I32.length info.order
let order_get info k = I32.get info.order k

let iter_order info f =
  for k = 0 to I32.length info.order - 1 do
    f (I32.unsafe_get info.order k)
  done

let tie_size info i = I32.get info.tie_off (i + 1) - I32.get info.tie_off i

let tie_get info i k = I32.get info.tie (I32.get info.tie_off i + k)

let tie_list info i =
  let lo = I32.get info.tie_off i and hi = I32.get info.tie_off (i + 1) in
  let acc = ref [] in
  for k = hi - 1 downto lo do
    acc := I32.get info.tie k :: !acc
  done;
  !acc

let tie_exists info i p =
  let hi = I32.get info.tie_off (i + 1) in
  let rec loop k = k < hi && (p (I32.unsafe_get info.tie k) || loop (k + 1)) in
  loop (I32.get info.tie_off i)

let tie_fold info i f init =
  let acc = ref init in
  for k = I32.get info.tie_off i to I32.get info.tie_off (i + 1) - 1 do
    acc := f !acc (I32.unsafe_get info.tie k)
  done;
  !acc

let tie_mem info i v = tie_exists info i (fun x -> x = v)

let info_bytes info =
  Bytes.length info.cls + Bytes.length info.len
  + I32.byte_size info.tie_off
  + I32.byte_size info.tie
  + I32.byte_size info.tie_rev_off
  + I32.byte_size info.tie_rev
  + I32.byte_size info.order + 128

let info_equal a b =
  a.dest = b.dest
  && Policy.tiebreak_equal a.tb b.tb
  && a.max_len = b.max_len
  && Bytes.equal a.cls b.cls
  && Bytes.equal a.len b.len
  && I32.equal a.tie_off b.tie_off
  && I32.equal a.tie b.tie
  && I32.equal a.tie_rev_off b.tie_rev_off
  && I32.equal a.tie_rev b.tie_rev
  && I32.equal a.order b.order

(* ------------------------------------------------------------------ *)
(* Incremental repair under topology churn (DESIGN.md section 10).

   [repair_surgical] patches one destination's statics across a
   {!Graph.delta} without rerunning the three-stage computation,
   whenever the delta provably cannot alter any existing node's class,
   length or tie row for this destination. Two facts carry the proof:

   - An appended stub (a new node that only becomes the *customer* of
     existing providers) has no customers and no peers, so it exports
     no customer route and is nobody's provider or peer: stage 1's
     provider-link BFS and stage 2's peer scans never read it, and in
     stage 3 it is a leaf of the bucket queue — its own best length is
     [min provider length + 1] and it pushes nothing. Every existing
     byte of the statics is untouched; the stub only appends CSR rows
     and splices into the order and the reverse-tiebreak layout.

   - Routes to [d] propagate exclusively through nodes that already
     hold a route to [d]. An edge op whose endpoints are both
     unreachable (in the pre-delta statics) can therefore never create
     or destroy a route for anyone: the reachable set's adjacency is
     unchanged, so the fixed point is unchanged. (This argument is
     joint across the delta's ops: it holds because *every* non-stub
     op in a surgical delta has only unreachable endpoints, and stub
     attachments never extend reachability among existing nodes.)

   Everything else — an insert or withdrawal touching a reachable
   node, class/participation toggles aside (the statics never read
   [Graph.klass]), edges among new nodes — falls back to a full
   {!compute} via {!repair}. The frontier of the delta is thus exact:
   destinations whose trees the churn cannot reach share their statics
   physically; reached ones are either patched in O(copy) or rebuilt. *)

type kernel = Full | Delta

let kernel_to_string = function Full -> "full" | Delta -> "delta"

let kernel_of_string = function
  | "full" -> Some Full
  | "delta" -> Some Delta
  | _ -> None

let kernel_of_env () =
  match Sys.getenv_opt "SBGP_STATICS_KERNEL" with
  | None | Some "" -> Delta
  | Some s -> (
      match kernel_of_string (String.lowercase_ascii (String.trim s)) with
      | Some k -> k
      | None ->
          Printf.eprintf
            "sbgp: invalid SBGP_STATICS_KERNEL=%S (expected full|delta); using delta\n%!" s;
          Delta)

(* Bump allocator over large slab chunks. The GC paces major work on
   custom-block bytes, so allocating each migrated entry's arrays as
   its own Bigarray makes a store-wide rebase allocation-dominated —
   the per-entry blocks cost an order of magnitude more than the
   patch work they hold. A slab hands out sub-slices of multi-MB
   chunks instead. Entries allocated from a slab share the chunks'
   lifetime, so [rebase] only uses one for unbounded stores, where
   nothing is ever evicted and the chunks die exactly when the next
   rebase (or drop) releases the migrated entries; bounded stores
   keep per-entry arenas so eviction keeps releasing real memory. *)
type slab = { mutable s_chunk : I32.t; mutable s_pos : int }

let slab_chunk_words = 1 lsl 20 (* 4 MB of int32 per chunk *)
let slab_create () = { s_chunk = I32.create 0; s_pos = 0 }

let slab_alloc sl len =
  if sl.s_pos + len > I32.length sl.s_chunk then begin
    sl.s_chunk <- I32.create (max slab_chunk_words len);
    sl.s_pos <- 0
  end;
  let s = Bigarray.Array1.sub sl.s_chunk sl.s_pos len in
  sl.s_pos <- sl.s_pos + len;
  s

(* Per-delta repair context: everything that does not depend on the
   destination — op classification and reusable scratch buffers — is
   hoisted here so a store [rebase] pays for it once, not once per
   resident entry (the per-entry patch must stay within a small
   multiple of its memcpy floor for repair to beat rebuild per unit of
   churn). The scratch is only valid within one [repair_with_ctx]
   call; [rebase] is single-threaded by contract, and the public
   [repair]/[repair_surgical] build a fresh context per call. *)
type repair_ctx = {
  rx_g : Graph.t;  (* the churned graph *)
  rx_delta : Graph.delta;
  rx_eligible : bool;
      (* false: some op (an edge among new nodes, say) disqualifies
         the surgical path for every destination *)
  rx_endpoints : int array;
      (* base-graph endpoints of the non-stub-attach edge ops: a
         destination is surgical iff none of them is reachable *)
  (* scratch, reused across calls *)
  rx_s_len : int array;  (* grown: appended-node length, 0 = unreachable *)
  rx_stubs : int array;  (* grown: reachable stubs, ascending (length, id) *)
  rx_cnt : int array;  (* 256 counting-sort buckets over lengths *)
  rx_row_off : int array;  (* grown + 1: per-stub tie-row offsets *)
  rx_row : int array;  (* flattened stub tie rows *)
  rx_slot_stub : int array;  (* owning stub of each flattened tie slot *)
  rx_row_buf : int array;  (* tie-row sort buffers, max new-node degree *)
  rx_key_buf : int array;
  rx_ex_count : int array;  (* base_n: appended rev-row members per provider *)
  rx_ex_head : int array;  (* base_n: provider's extras head slot, -1 = none *)
  rx_ex_next : int array;  (* next slot in a provider's extras list *)
  rx_pdat : int array;
      (* appended slice of the provider CSR, each stub's row pre-sorted
         by (tiebreak key, CSR position) — a filtered subset of a row
         is then already in stable tiebreak order, so per-destination
         tie rows need no sorting at all *)
  rx_sorted_for : Policy.tiebreak option ref;  (* policy [rx_pdat] is sorted under *)
  rx_alloc : int -> I32.t;  (* arena allocator for patched entries *)
}

(* Tiebreak-policy equality at the only granularity that matters here:
   rank tables compare by identity (they are mutable). *)
let tb_same a b =
  match (a, b) with
  | Policy.Lowest_id, Policy.Lowest_id -> true
  | Policy.Hashed x, Policy.Hashed y -> x = y
  | Policy.Ranked r1, Policy.Ranked r2 -> r1 == r2
  | _ -> false

let make_repair_ctx g' (delta : Graph.delta) =
  let base_n = delta.Graph.base_n in
  let n' = Graph.n g' in
  if n' <> base_n + delta.Graph.grown then
    invalid_arg "Route_static.repair: graph does not match delta";
  let eligible = ref true in
  let endpoints = ref [] in
  List.iter
    (fun op ->
      match op with
      | Graph.Set_cp _ -> () (* classes are never read by [compute] *)
      | Graph.Edge_add ((p, c), Graph.Customer) when p < base_n && c >= base_n ->
          () (* stub attach: recovered from the provider CSR below *)
      | Graph.Edge_add ((c, p), Graph.Provider) when p < base_n && c >= base_n -> ()
      | Graph.Edge_add ((a, b), _) | Graph.Edge_remove ((a, b), _) ->
          if a >= base_n || b >= base_n then eligible := false
          else endpoints := a :: b :: !endpoints)
    delta.Graph.ops;
  let grown = delta.Graph.grown in
  let prov_off = g'.Graph.providers.Csr.offsets in
  let cap = ba_get prov_off n' - ba_get prov_off base_n in
  let maxdeg = ref 1 in
  for s = base_n to n' - 1 do
    maxdeg := max !maxdeg (ba_get prov_off (s + 1) - ba_get prov_off s)
  done;
  {
    rx_g = g';
    rx_delta = delta;
    rx_eligible = !eligible;
    rx_endpoints = Array.of_list !endpoints;
    rx_s_len = Array.make (max 1 grown) 0;
    rx_stubs = Array.make (max 1 grown) 0;
    rx_cnt = Array.make 256 0;
    rx_row_off = Array.make (grown + 1) 0;
    rx_row = Array.make (max 1 cap) 0;
    rx_slot_stub = Array.make (max 1 cap) 0;
    rx_row_buf = Array.make !maxdeg 0;
    rx_key_buf = Array.make !maxdeg 0;
    rx_ex_count = Array.make (max 1 base_n) 0;
    rx_ex_head = Array.make (max 1 base_n) (-1);
    rx_ex_next = Array.make (max 1 cap) (-1);
    rx_pdat = Array.make (max 1 cap) 0;
    rx_sorted_for = ref None;
    rx_alloc = I32.create;
  }

(* Sort every appended stub's provider row once per (context,
   policy): [sort_row] is stable over CSR position, so any subset of a
   pre-sorted row — the providers achieving the minimum length for one
   destination — is exactly the row the per-destination sort used to
   produce. This hoists all tiebreak-key evaluation out of the
   per-destination patch loop. *)
let rx_prepare_rows rx tb =
  match !(rx.rx_sorted_for) with
  | Some tb0 when tb_same tb0 tb -> ()
  | _ ->
      let g' = rx.rx_g in
      let base_n = rx.rx_delta.Graph.base_n in
      let n' = Graph.n g' in
      let prov_off = g'.Graph.providers.Csr.offsets
      and prov_dat = g'.Graph.providers.Csr.data in
      let pbase = ba_get prov_off base_n in
      let pdat = rx.rx_pdat in
      for st = base_n to n' - 1 do
        let lo = ba_get prov_off st - pbase in
        let c = ba_get prov_off (st + 1) - pbase - lo in
        if c > 0 then begin
          for k = 0 to c - 1 do
            rx.rx_row_buf.(k) <- ba_get prov_dat (lo + pbase + k)
          done;
          if c > 1 then sort_row tb st rx.rx_row_buf rx.rx_key_buf c;
          Array.blit rx.rx_row_buf 0 pdat lo c
        end
      done;
      rx.rx_sorted_for := Some tb

let repair_with_ctx rx info =
  let delta = rx.rx_delta in
  let base_n = delta.Graph.base_n in
  if Bytes.length info.cls <> base_n then
    invalid_arg "Route_static.repair: dest_info does not match delta.base_n";
  let reach i = i < base_n && Bytes.unsafe_get info.cls i <> c_unreach in
  let surgical = ref rx.rx_eligible in
  let ep = rx.rx_endpoints in
  let ne = Array.length ep in
  let i = ref 0 in
  while !surgical && !i < ne do
    if reach (Array.unsafe_get ep !i) then surgical := false;
    incr i
  done;
  if not !surgical then None
  else if delta.Graph.grown = 0 then Some info (* nothing the tree can see changed *)
  else begin
    let g' = rx.rx_g in
    let n' = Graph.n g' in
    let grown = delta.Graph.grown in
    rx_prepare_rows rx info.tb;
    let prov_off = g'.Graph.providers.Csr.offsets in
    let pbase = ba_get prov_off base_n in
    let pdat = rx.rx_pdat in
    (* One pass over the appended stubs fuses three jobs: each stub's
       class/length (min reachable provider + 1 — exactly the key at
       which stage 3's bucket queue would first pop it), the new
       cls/len bytes, and the stub's tiebreak row (the providers that
       achieve the minimum, in provider-CSR order, tiebreak-sorted
       like every other row). Every provider of an appended stub is an
       existing node (make_repair_ctx routed anything else to the
       fallback), so reachability is one byte read. *)
    let s_len = rx.rx_s_len in
    let cls = Bytes.make n' c_unreach in
    Bytes.blit info.cls 0 cls 0 base_n;
    let len = Bytes.make n' '\000' in
    Bytes.blit info.len 0 len 0 base_n;
    let row_off = rx.rx_row_off
    and row = rx.rx_row
    and slot_stub = rx.rx_slot_stub in
    let olen = info.len in
    let w = ref 0 in
    row_off.(0) <- 0;
    let d0 = info.dest in
    for s = base_n to n' - 1 do
      let klo = ba_get prov_off s - pbase and khi = ba_get prov_off (s + 1) - pbase in
      (* One argmin-collect pass: a strictly shorter provider resets
         the row, an equal one appends — [pdat] rows are pre-sorted, so
         the surviving row is born in stable tiebreak order with no
         per-destination sort. Reachability is one byte: an unwritten
         length byte is 0, and the only reachable node of length 0 is
         the destination itself. *)
      let first = !w in
      let best = ref inf in
      for k = klo to khi - 1 do
        let p = Array.unsafe_get pdat k in
        let l = Char.code (Bytes.unsafe_get olen p) in
        if l > 0 || p = d0 then
          if l < !best then begin
            best := l;
            w := first;
            row.(first) <- p;
            slot_stub.(first) <- s;
            w := first + 1
          end
          else if l = !best then begin
            row.(!w) <- p;
            slot_stub.(!w) <- s;
            incr w
          end
      done;
      let j = s - base_n in
      if !best < inf && !best + 1 <= max_path_len then begin
        s_len.(j) <- !best + 1;
        Bytes.unsafe_set cls s c_prov;
        Bytes.unsafe_set len s (Char.unsafe_chr (!best + 1))
      end
      else begin
        s_len.(j) <- 0;
        w := first
      end;
      row_off.(j + 1) <- !w
    done;
    (* Reachable stubs in ascending (length, id): their relative order
       in the new [order], where each sits after every existing node of
       equal length ([Order.by_small_key] is stable by id and all
       appended ids exceed all existing ids). Counting sort over the
       one-byte lengths; filling in ascending id keeps equal lengths
       id-sorted. *)
    let cnt = rx.rx_cnt in
    Array.fill cnt 0 256 0;
    for j = 0 to grown - 1 do
      let l = s_len.(j) in
      if l > 0 then cnt.(l) <- cnt.(l) + 1
    done;
    let acc = ref 0 in
    for l = 1 to 255 do
      let c = cnt.(l) in
      cnt.(l) <- !acc;
      acc := !acc + c
    done;
    let nstub = !acc in
    let stubs = rx.rx_stubs in
    for j = 0 to grown - 1 do
      let l = s_len.(j) in
      if l > 0 then begin
        stubs.(cnt.(l)) <- base_n + j;
        cnt.(l) <- cnt.(l) + 1
      end
    done;
    let extra_total = !w in
    let old_total = I32.length info.tie in
    let old_reach = I32.length info.order in
    let old_rev_total = I32.length info.tie_rev in
    (* The five int32 arrays come from the context's allocator: plain
       [I32.create] for one-off repairs and bounded stores (eviction
       keeps releasing real memory), slab sub-slices for store-wide
       rebases (see [slab]). *)
    let sz_off = n' + 1 in
    let sz_tie = old_total + extra_total in
    let sz_rev = old_rev_total + extra_total in
    let sz_order = old_reach + nstub in
    let tie_off = rx.rx_alloc sz_off in
    let tie = rx.rx_alloc sz_tie in
    let tie_rev_off = rx.rx_alloc sz_off in
    let tie_rev = rx.rx_alloc sz_rev in
    let order = rx.rx_alloc sz_order in
    I32.blit ~src:info.tie_off ~src_pos:0 ~dst:tie_off ~dst_pos:0 ~len:(base_n + 1);
    for j = 1 to grown do
      ba_set tie_off (base_n + j) (old_total + row_off.(j))
    done;
    I32.blit ~src:info.tie ~src_pos:0 ~dst:tie ~dst_pos:0 ~len:old_total;
    for k = 0 to extra_total - 1 do
      ba_set tie (old_total + k) row.(k)
    done;
    (* Order: splice the stubs in after the existing nodes of their
       length. Stubs share few distinct lengths, so the merge runs one
       binary search and one wholesale chunk copy per distinct length,
       then appends that length's run of stubs. *)
    let cursor = ref 0 and out = ref 0 in
    let idx = ref 0 in
    while !idx < nstub do
      let l = s_len.(stubs.(!idx) - base_n) in
      let stop = ref (!idx + 1) in
      while !stop < nstub && s_len.(stubs.(!stop) - base_n) = l do incr stop done;
      let lo = ref !cursor and hi = ref old_reach in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Char.code (Bytes.unsafe_get info.len (ba_get info.order mid)) <= l then lo := mid + 1 else hi := mid
      done;
      let ins = !lo in
      I32.blit ~src:info.order ~src_pos:!cursor ~dst:order ~dst_pos:!out
        ~len:(ins - !cursor);
      out := !out + (ins - !cursor);
      cursor := ins;
      for k = !idx to !stop - 1 do
        ba_set order !out stubs.(k);
        incr out
      done;
      idx := !stop
    done;
    I32.blit ~src:info.order ~src_pos:!cursor ~dst:order ~dst_pos:!out
      ~len:(old_reach - !cursor);
    (* Reverse tiebreak CSR: only the stub providers' rows gain
       members. Rows are ordered by descending order position, which
       over the new order is descending (length, id) — appended ids
       exceed existing ones, so a stub sorts after (= higher position
       than) every existing node of its length. Walking the stubs in
       ascending position and pushing each onto its providers' linked
       extras leaves every list descending; one pass over the
       providers then copies unchanged row ranges wholesale and merges
       the changed rows in place. *)
    let ex_count = rx.rx_ex_count
    and ex_head = rx.rx_ex_head
    and ex_next = rx.rx_ex_next in
    for idx = 0 to nstub - 1 do
      let j = stubs.(idx) - base_n in
      for k = row_off.(j) to row_off.(j + 1) - 1 do
        let p = row.(k) in
        ex_count.(p) <- ex_count.(p) + 1;
        ex_next.(k) <- ex_head.(p);
        ex_head.(p) <- k
      done
    done;
    let pos_gt a b =
      let la = Char.code (Bytes.unsafe_get len a)
      and lb = Char.code (Bytes.unsafe_get len b) in
      la > lb || (la = lb && a > b)
    in
    let sh = ref 0 in
    let prev_end = ref 0 in
    for p = 0 to base_n - 1 do
      ba_set tie_rev_off p (ba_get info.tie_rev_off p + !sh);
      if ex_count.(p) > 0 then begin
        let p_lo = ba_get info.tie_rev_off p
        and p_hi = ba_get info.tie_rev_off (p + 1) in
        let sh0 = !sh in
        for i = !prev_end to p_lo - 1 do
          Bigarray.Array1.unsafe_set tie_rev (i + sh0)
            (Bigarray.Array1.unsafe_get info.tie_rev i)
        done;
        let wr = ref (p_lo + !sh) in
        let ex = ref ex_head.(p) in
        let k = ref p_lo in
        while !k < p_hi || !ex >= 0 do
          let take_stub =
            !ex >= 0
            && (!k >= p_hi
               || pos_gt slot_stub.(!ex) (ba_get info.tie_rev !k))
          in
          if take_stub then begin
            ba_set tie_rev !wr slot_stub.(!ex);
            ex := ex_next.(!ex)
          end
          else begin
            ba_set tie_rev !wr (ba_get info.tie_rev !k);
            incr k
          end;
          incr wr
        done;
        sh := !sh + ex_count.(p);
        prev_end := p_hi
      end
    done;
    I32.blit ~src:info.tie_rev ~src_pos:!prev_end ~dst:tie_rev
      ~dst_pos:(!prev_end + !sh) ~len:(old_rev_total - !prev_end);
    let tail = old_rev_total + extra_total in
    for i = base_n to n' do
      ba_set tie_rev_off i tail
    done;
    (* Reset the provider-indexed scratch for the next call; [ex_next]
       may stay stale, it is only read behind a live head. *)
    for k = 0 to extra_total - 1 do
      let p = row.(k) in
      ex_count.(p) <- 0;
      ex_head.(p) <- -1
    done;
    let max_len = ref info.max_len in
    for j = 0 to grown - 1 do
      if s_len.(j) > !max_len then max_len := s_len.(j)
    done;
    Some
      {
        dest = info.dest;
        cls;
        len;
        tie_off;
        tie;
        tie_rev_off;
        tie_rev;
        order;
        tb = info.tb;
        max_len = !max_len;
      }
  end

let repair_surgical g' ~delta info = repair_with_ctx (make_repair_ctx g' delta) info

let repair g' ~delta info =
  match repair_surgical g' ~delta info with
  | Some info' -> info'
  | None -> compute ~tiebreak:info.tb g' info.dest

(* ------------------------------------------------------------------ *)
(* The whole-graph statics store: lazily filled, optionally bounded.

   Memory is governed by a byte budget ([SBGP_STATICS_MB], --statics-mb
   or {!set_budget_bytes}); the slot space is striped into shards, each
   with its own clock hand, byte account and counters, aligned with the
   contiguous destination chunks the engine's workers claim — so
   concurrent worker domains touch mostly disjoint shard state. Under a
   budget, a missed [get] recomputes (pure, so results never change)
   and inserts under clock (second-chance) eviction. Counter updates
   from concurrent domains are plain writes: a lost increment skews the
   stats by a hair but can never corrupt results. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  cached : int;
  cached_bytes : int;
  budget_bytes : int;
}

type shard = {
  lo : int;
  hi : int;  (** slot range [lo, hi) *)
  mutable budget : int;  (** bytes; [max_int] = unbounded *)
  mutable used : int;
  mutable hand : int;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_evictions : int;
}

type t = {
  mutable g : Graph.t;
  mutable slots : dest_info option array;
  mutable ref_bits : Bytes.t;
  mutable shards : shard array;
  mutable shard_idx : Bytes.t;  (** destination -> owning shard (≤ 16 shards) *)
  mutable tiebreak : Policy.tiebreak;
}

let shard_of t d = t.shards.(Char.code (Bytes.unsafe_get t.shard_idx d))

let num_shards n = max 1 (min 16 n)

let default_budget_bytes () =
  let mb = Nsutil.Env.int_var ~name:"SBGP_STATICS_MB" ~min:0 ~default:0 () in
  if mb <= 0 then max_int else mb * 1024 * 1024

(* Fresh slot space, shard stripes and counters for an [n]-node graph;
   shared between [create] and [rebase]. *)
let skeleton ~budget n =
  let s = num_shards n in
  let per_shard = if budget = max_int then max_int else max 1 (budget / s) in
  let shards =
    Array.init s (fun k ->
        let lo = k * n / s and hi = (k + 1) * n / s in
        {
          lo;
          hi;
          budget = per_shard;
          used = 0;
          hand = lo;
          s_hits = 0;
          s_misses = 0;
          s_evictions = 0;
        })
  in
  let shard_idx = Bytes.make n '\000' in
  Array.iteri
    (fun k sh ->
      for d = sh.lo to sh.hi - 1 do
        Bytes.set shard_idx d (Char.chr k)
      done)
    shards;
  (Array.make n None, Bytes.make n '\000', shards, shard_idx)

let create ?budget_bytes ?(tiebreak = Policy.Lowest_id) g =
  let budget =
    match budget_bytes with
    | Some b -> if b <= 0 then max_int else b
    | None -> default_budget_bytes ()
  in
  let slots, ref_bits, shards, shard_idx = skeleton ~budget (Graph.n g) in
  { g; slots; ref_bits; shards; shard_idx; tiebreak }

let graph t = t.g

let stats t =
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  let used = ref 0 in
  Array.iter
    (fun s ->
      hits := !hits + s.s_hits;
      misses := !misses + s.s_misses;
      evictions := !evictions + s.s_evictions;
      used := !used + s.used)
    t.shards;
  let cached = Array.fold_left (fun a -> function Some _ -> a + 1 | None -> a) 0 t.slots in
  let budget =
    Array.fold_left
      (fun a s -> if s.budget = max_int || a = max_int then max_int else a + s.budget)
      0 t.shards
  in
  {
    hits = !hits;
    misses = !misses;
    evictions = !evictions;
    cached;
    cached_bytes = !used;
    budget_bytes = budget;
  }

let bounded t = Array.exists (fun s -> s.budget <> max_int) t.shards

(* Clock (second-chance) eviction within one shard until [need] bytes
   fit; gives up (and skips caching) if a full double scan frees
   nothing, which can only happen when every resident entry was
   re-referenced concurrently. *)
let make_room t shard need =
  if need > shard.budget then false
  else begin
    let span = shard.hi - shard.lo in
    let steps = ref (2 * span) in
    while shard.used + need > shard.budget && !steps > 0 do
      let d = shard.hand in
      shard.hand <- (if d + 1 >= shard.hi then shard.lo else d + 1);
      decr steps;
      match t.slots.(d) with
      | None -> ()
      | Some info ->
          if Bytes.get t.ref_bits d = '\001' then Bytes.set t.ref_bits d '\000'
          else begin
            t.slots.(d) <- None;
            shard.used <- shard.used - info_bytes info;
            shard.s_evictions <- shard.s_evictions + 1
          end
    done;
    shard.used + need <= shard.budget
  end

let insert t d info =
  let shard = shard_of t d in
  if shard.budget = max_int then begin
    t.slots.(d) <- Some info;
    shard.used <- shard.used + info_bytes info
  end
  else begin
    let size = info_bytes info in
    if make_room t shard size then begin
      t.slots.(d) <- Some info;
      shard.used <- shard.used + size;
      Bytes.set t.ref_bits d '\000'
    end
  end

let get t d =
  match t.slots.(d) with
  | Some info ->
      let shard = shard_of t d in
      shard.s_hits <- shard.s_hits + 1;
      Bytes.unsafe_set t.ref_bits d '\001';
      info
  | None ->
      let shard = shard_of t d in
      shard.s_misses <- shard.s_misses + 1;
      let info = compute ~tiebreak:t.tiebreak t.g d in
      insert t d info;
      info

let peek t d = t.slots.(d)

(* The streaming read path for whole-graph sweeps under a budget.
   Where {!get} evicts to make room — right for random-access reads
   with locality — a sweep touches every destination once per round,
   so clock eviction degenerates to churning the entire store every
   round while serving almost no hits. [stream_get] instead keeps a
   *stable cached prefix*: a miss recomputes into the caller's builder
   (transient, zero record allocation) and promotes the record into
   the store only when it fits the shard's remaining headroom without
   evicting anything. The cached set therefore converges to whatever
   the budget holds and stays put; every other destination streams
   through the builder with no resident footprint at all. Results are
   bit-identical to {!get} at any budget because {!compute_with} is
   pure. The returned record is only valid until the builder's next
   transient compute when it was not promoted — callers must finish
   with it before their next [stream_get] on the same builder. *)
let stream_get t bd d =
  match t.slots.(d) with
  | Some info ->
      let shard = shard_of t d in
      shard.s_hits <- shard.s_hits + 1;
      Bytes.unsafe_set t.ref_bits d '\001';
      info
  | None ->
      let shard = shard_of t d in
      shard.s_misses <- shard.s_misses + 1;
      if shard.budget = max_int then begin
        let info = compute_with ~tiebreak:t.tiebreak bd t.g d in
        t.slots.(d) <- Some info;
        shard.used <- shard.used + info_bytes info;
        info
      end
      else begin
        let info = compute_with ~tiebreak:t.tiebreak ~transient:true bd t.g d in
        let size = info_bytes info in
        if shard.used + size <= shard.budget then begin
          let promoted = info_copy info in
          t.slots.(d) <- Some promoted;
          shard.used <- shard.used + size;
          Bytes.set t.ref_bits d '\000';
          promoted
        end
        else info
      end

(* Destinations per dynamically-claimed chunk for a whole-graph sweep
   over this store: large enough that one worker stays inside one
   shard stripe for a while (shard counters and clock state then see
   mostly single-writer traffic, and promoted entries cluster), small
   enough that dynamic claiming can rebalance shards whose
   destinations run hot. Floors at the engine's gadget-scale grain. *)
let batch_grain t ~workers ~tasks =
  let span =
    if Array.length t.shards = 0 then tasks else t.shards.(0).hi - t.shards.(0).lo
  in
  max 8 (min (max 1 span) (tasks / max 1 (workers * 16)))

let drop_all t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  Bytes.fill t.ref_bits 0 (Bytes.length t.ref_bits) '\000';
  Array.iter
    (fun s ->
      s.used <- 0;
      s.hand <- s.lo)
    t.shards

let set_budget_bytes t budget =
  let s = Array.length t.shards in
  let budget = if budget <= 0 then max_int else budget in
  let per_shard = if budget = max_int then max_int else max 1 (budget / s) in
  Array.iter
    (fun shard ->
      shard.budget <- per_shard;
      (* Trim immediately so a shrunk budget takes effect now. *)
      if shard.used > per_shard then ignore (make_room t shard 0))
    t.shards

let set_budget_mb t mb = set_budget_bytes t (if mb <= 0 then 0 else mb * 1024 * 1024)

let ensure_tiebreak t tiebreak =
  if not (Policy.tiebreak_equal t.tiebreak tiebreak) then begin
    (* Cached rows are sorted under the old policy; recomputing them
       lazily under the new one keeps the sort invariant exact
       (including insertion-order stability on key ties). *)
    t.tiebreak <- tiebreak;
    drop_all t
  end

(* Compute the records of [dests] in parallel ([compute_with] is pure;
   each worker reuses one builder) and hand each to [place], serially
   in [dests] order. Shared by [ensure_all] and [of_snapshot]. *)
let fill ~workers t dests place =
  let n = Graph.n t.g and tiebreak = t.tiebreak in
  let infos = Array.make (Array.length dests) None in
  Parallel.Pool.parallel_for Parallel.Pool.no_supervision ~workers
    ~tasks:(Array.length dests) ~grain:8
    ~scratch:(fun () -> make_builder n)
    (fun bd i -> infos.(i) <- Some (compute_with ~tiebreak bd t.g dests.(i)));
  Array.iteri (fun i info -> Option.iter (place dests.(i)) info) infos

let ensure_all ?(workers = 1) t =
  if not (bounded t) then begin
    let missing = ref [] in
    for d = Graph.n t.g - 1 downto 0 do
      if t.slots.(d) = None then missing := d :: !missing
    done;
    fill ~workers t (Array.of_list !missing) (fun d info ->
        let shard = shard_of t d in
        shard.s_misses <- shard.s_misses + 1;
        insert t d info)
  end
(* Under a budget, prefilling would only evict what it just built:
   leave the store to fill lazily, trading recompute for memory. *)

(* ------------------------------------------------------------------ *)
(* Rebasing the store across a topology delta. The store swaps in a
   fresh slot space sized for the new graph and, under the [Delta]
   kernel, migrates every resident entry through [repair_surgical]:
   shared and patched entries are re-inserted through the normal
   budget accounting (so eviction state stays exact), entries the
   churn actually reaches are dropped for lazy recompute against the
   new graph. The returned journal snapshots the pre-rebase store —
   slots, reference bits, shards and shard map are never mutated after
   the swap, so [undo_rebase] is an O(1) pointer restore, mirroring
   the once-per-node undo log of [Forest.repair] one level up. *)

type rebase_stats = { shared : int; patched : int; dropped : int }

type journal = {
  j_g : Graph.t;
  j_slots : dest_info option array;
  j_ref_bits : Bytes.t;
  j_shards : shard array;
  j_shard_idx : Bytes.t;
  j_tiebreak : Policy.tiebreak;
  j_stats : rebase_stats;
  j_changed : int list;
}

let rebase ?kernel ?(workers = 1) t ~delta g' =
  let kernel = match kernel with Some k -> k | None -> kernel_of_env () in
  let base_n = delta.Graph.base_n in
  if Graph.n t.g <> base_n then
    invalid_arg "Route_static.rebase: store does not match delta.base_n";
  if Graph.n g' <> base_n + delta.Graph.grown then
    invalid_arg "Route_static.rebase: graph does not match delta";
  let old_g = t.g
  and old_slots = t.slots
  and old_ref = t.ref_bits
  and old_shards = t.shards
  and old_idx = t.shard_idx in
  let budget =
    if bounded t then
      Array.fold_left
        (fun a s -> if s.budget = max_int then a else a + s.budget)
        0 t.shards
    else max_int
  in
  let slots, ref_bits, shards, shard_idx = skeleton ~budget (Graph.n g') in
  t.g <- g';
  t.slots <- slots;
  t.ref_bits <- ref_bits;
  t.shards <- shards;
  t.shard_idx <- shard_idx;
  let shared = ref 0
  and patched = ref 0
  and dropped = ref 0
  and changed = ref [] in
  (match kernel with
  | Full ->
      (* Everything rebuilds lazily; conservatively report every
         destination as changed. *)
      for d = base_n - 1 downto 0 do
        (match old_slots.(d) with Some _ -> incr dropped | None -> ());
        changed := d :: !changed
      done
  | Delta ->
      (* Phase 1, parallel: pure per-entry repair — the migration is
         memory-bound (each resident entry is read and its patched
         copy written), so it fans out across domains; each worker
         builds its own context (op classification + patch
         scratch, per-delta not per-entry). Phase 2, serial: inserts
         in the same fixed order as a serial rebase, so budget
         accounting, eviction state and stats are bit-identical at
         any worker count. *)
      let results = Array.make (max 1 base_n) None in
      Parallel.Pool.parallel_for Parallel.Pool.no_supervision ~workers ~tasks:base_n
        ~grain:32
        ~scratch:(fun () ->
          let rx = make_repair_ctx g' delta in
          if bounded t then rx else { rx with rx_alloc = slab_alloc (slab_create ()) })
        (fun rx d ->
          match old_slots.(d) with
          | None -> ()
          | Some info -> results.(d) <- Some (repair_with_ctx rx info));
      for d = base_n - 1 downto 0 do
        match results.(d) with
        | None ->
            (* Never computed: nothing to migrate, and nothing proves
               it unchanged either. *)
            changed := d :: !changed
        | Some (Some info') ->
            insert t d info';
            if (match old_slots.(d) with Some info -> info' == info | None -> false)
            then incr shared
            else begin
              incr patched;
              changed := d :: !changed
            end
        | Some None ->
            incr dropped;
            changed := d :: !changed
      done);
  {
    j_g = old_g;
    j_slots = old_slots;
    j_ref_bits = old_ref;
    j_shards = old_shards;
    j_shard_idx = old_idx;
    j_tiebreak = t.tiebreak;
    j_stats = { shared = !shared; patched = !patched; dropped = !dropped };
    j_changed = !changed;
  }

let undo_rebase t j =
  t.g <- j.j_g;
  t.slots <- j.j_slots;
  t.ref_bits <- j.j_ref_bits;
  t.shards <- j.j_shards;
  t.shard_idx <- j.j_shard_idx;
  t.tiebreak <- j.j_tiebreak

let rebase_stats j = j.j_stats
let rebase_changed j = j.j_changed

(* ------------------------------------------------------------------ *)
(* Store snapshots for churn-consistent checkpoints. A record is a
   pure function of (graph, tiebreak), so the image holds only what
   cannot be derived: the resident destinations, reference bits, the
   per-shard budget, each shard's clock hand and hit/miss/eviction
   counters (a resumed run reports the statistics an uninterrupted one
   would) and the tiebreak. [of_snapshot] takes the stripes from
   [skeleton], recomputes the resident records and re-derives the
   byte accounts from them. The graph serializes separately. *)

type shard_image = { im_hand : int; im_hits : int; im_misses : int; im_evictions : int }

type store_image = {
  im_n : int;
  im_tiebreak : Policy.tiebreak;
  im_resident : int array;  (* ascending *)
  im_ref_bits : Bytes.t;
  im_budget : int;  (* per shard; [max_int] = unbounded *)
  im_shards : shard_image array;
}

let snapshot t =
  let n = Graph.n t.g in
  let shard s =
    { im_hand = s.hand; im_hits = s.s_hits; im_misses = s.s_misses; im_evictions = s.s_evictions }
  in
  Marshal.to_string
    {
      im_n = n;
      im_tiebreak = t.tiebreak;
      im_resident =
        Array.of_list (List.filter (fun d -> t.slots.(d) <> None) (List.init n Fun.id));
      im_ref_bits = t.ref_bits;
      im_budget = t.shards.(0).budget;
      im_shards = Array.map shard t.shards;
    }
    []

let of_snapshot ?(workers = 1) g s =
  let im : store_image = Marshal.from_string s 0 in
  if im.im_n <> Graph.n g then
    invalid_arg "Route_static.of_snapshot: graph does not match the snapshot";
  let slots, _, shards, shard_idx = skeleton ~budget:max_int im.im_n in
  Array.iteri
    (fun k sh ->
      let c = im.im_shards.(k) in
      sh.budget <- im.im_budget;
      sh.hand <- c.im_hand;
      sh.s_hits <- c.im_hits;
      sh.s_misses <- c.im_misses;
      sh.s_evictions <- c.im_evictions)
    shards;
  let t = { g; slots; ref_bits = im.im_ref_bits; shards; shard_idx; tiebreak = im.im_tiebreak } in
  (* Direct slot stores, not [insert]: the rebuild reproduces the
     image's residency, reference bits and counters, never evicting or
     counting. *)
  fill ~workers t im.im_resident (fun d info ->
      t.slots.(d) <- Some info;
      let shard = shard_of t d in
      shard.used <- shard.used + info_bytes info);
  t

module Dirty = struct
  type statics = t

  type t = { statics : statics; flags : Bytes.t }

  let create statics =
    { statics; flags = Bytes.make (Graph.n statics.g) '\001' }

  let is_dirty t d = Bytes.get t.flags d = '\001'
  let mark t d = Bytes.set t.flags d '\001'

  let invalidate t ~changed ~secure =
    if changed <> [] then begin
      let n = Graph.n t.statics.g in
      let in_changed = Bytes.make n '\000' in
      let changed_count = List.length changed in
      List.iter (fun c -> Bytes.set in_changed c '\001') changed;
      (* Under a byte budget, evicted records stream through a local
         builder ([get] would compute-and-insert, churning the very
         budget the caller set); forced lazily — unbounded stores and
         all-resident scans never build it. *)
      let bd = lazy (make_builder n) in
      for d = 0 to n - 1 do
        if Bytes.get t.flags d = '\000' then
          if Bytes.get in_changed d = '\001' then Bytes.set t.flags d '\001'
          else if Bytes.get secure d = '\001' then begin
            (* The origin participates, so routes towards it can be
               secure: any reachable changed byte may flip a route's
               security or a security tie-break. An origin that does
               not participate (and whose own bytes are unchanged) has
               no secure routes before or after — its tree only reads
               static preferences, so it stays clean. Scan whichever
               of the changed set and the destination's reachable
               order is smaller. *)
            let info =
              if bounded t.statics then stream_get t.statics (Lazy.force bd) d
              else get t.statics d
            in
            let nreach = I32.length info.order in
            let hit =
              if changed_count <= nreach then
                List.exists (fun c -> reachable info c) changed
              else begin
                let rec scan k =
                  k < nreach
                  && (Bytes.unsafe_get in_changed (I32.unsafe_get info.order k)
                      = '\001'
                     || scan (k + 1))
                in
                scan 0
              end
            in
            if hit then Bytes.set t.flags d '\001'
          end
      done
    end

  let reset t = Bytes.fill t.flags 0 (Bytes.length t.flags) '\000'

  let dirty_count t =
    let acc = ref 0 in
    Bytes.iter (fun c -> if c = '\001' then incr acc) t.flags;
    !acc
end

let mean_tiebreak_size t ~among =
  let n = Graph.n t.g in
  let total = ref 0 in
  let count = ref 0 in
  for d = 0 to n - 1 do
    let info = get t d in
    iter_order info (fun i ->
        if i <> d && among i then begin
          total := !total + tie_size info i;
          incr count
        end)
  done;
  if !count = 0 then 0.0 else float_of_int !total /. float_of_int !count

let mean_path_length t ~from =
  let n = Graph.n t.g in
  let total = ref 0 in
  let count = ref 0 in
  for d = 0 to n - 1 do
    if d <> from then begin
      let info = get t d in
      if reachable info from then begin
        total := !total + length_of info from;
        incr count
      end
    end
  done;
  if !count = 0 then 0.0 else float_of_int !total /. float_of_int !count
