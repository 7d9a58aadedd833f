(* Little-endian limbs in base 10^9; the empty array is zero.  The
   representation is canonical: no trailing zero limb. *)

let base = 1_000_000_000
let base_digits = 9

type t = int array

let zero = [||]
let one = [| 1 |]

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  let rec limbs n acc = if n = 0 then acc else limbs (n / base) (n mod base :: acc) in
  normalize (Array.of_list (List.rev (limbs n [])))

let to_int a =
  let v =
    Array.fold_right
      (fun limb acc ->
        if acc > (max_int - limb) / base then failwith "Nat.to_int: overflow"
        else (acc * base) + limb)
      a 0
  in
  v

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let equal a b = compare a b = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let r = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s mod base;
    carry := s / base
  done;
  normalize r

let sub a b =
  if compare a b < 0 then invalid_arg "Nat.sub: would be negative";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let mul_int a k =
  if k < 0 then invalid_arg "Nat.mul_int: negative";
  if k = 0 || Array.length a = 0 then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 3) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = (a.(i) * k) + !carry in
      r.(i) <- p mod base;
      carry := p / base
    done;
    let i = ref la in
    while !carry > 0 do
      r.(!i) <- !carry mod base;
      carry := !carry / base;
      incr i
    done;
    normalize r
  end

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    (* Schoolbook multiplication; products of two base-10^9 limbs exceed
       62 bits, so split each b-limb into two half-limbs of <= 31711. *)
    let half = 31623 (* ceil (sqrt base) *) in
    let r = Array.make (la + lb + 1) 0 in
    for j = 0 to lb - 1 do
      let bh = b.(j) / half and bl = b.(j) mod half in
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let p = (a.(i) * bl) + ((a.(i) * bh mod base) * half) + r.(i + j) + !carry in
        let extra = a.(i) * bh / base * half in
        r.(i + j) <- p mod base;
        carry := (p / base) + extra
      done;
      let i = ref la in
      while !carry > 0 do
        let s = r.(!i + j) + !carry in
        r.(!i + j) <- s mod base;
        carry := s / base;
        incr i
      done
    done;
    normalize r
  end

let divmod_int a k =
  if k <= 0 || k > 1 lsl 30 then invalid_arg "Nat.divmod_int: divisor out of range";
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem * base) + a.(i) in
    q.(i) <- cur / k;
    rem := cur mod k
  done;
  (normalize q, !rem)

let factorial n =
  if n < 0 then invalid_arg "Nat.factorial: negative";
  let rec go i acc = if i > n then acc else go (i + 1) (mul_int acc i) in
  go 2 one

let log2 a =
  let la = Array.length a in
  if la = 0 then neg_infinity
  else begin
    (* Use the top (up to) three limbs for the mantissa. *)
    let top = ref 0.0 in
    let limbs_used = min 3 la in
    for i = la - 1 downto la - limbs_used do
      top := (!top *. float_of_int base) +. float_of_int a.(i)
    done;
    let skipped = la - limbs_used in
    (log !top /. log 2.0) +. (float_of_int skipped *. float_of_int base_digits *. (log 10.0 /. log 2.0))
  end

let log2_factorial n =
  let rec go i acc = if i > n then acc else go (i + 1) (acc +. (log (float_of_int i) /. log 2.0)) in
  go 2 0.0

let to_string a =
  let la = Array.length a in
  if la = 0 then "0"
  else begin
    let buf = Buffer.create (la * base_digits) in
    Buffer.add_string buf (string_of_int a.(la - 1));
    for i = la - 2 downto 0 do
      Buffer.add_string buf (Printf.sprintf "%09d" a.(i))
    done;
    Buffer.contents buf
  end

let digits a = String.length (to_string a)

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Nat.of_string: empty";
  String.iter (fun c -> if c < '0' || c > '9' then invalid_arg "Nat.of_string: not a digit") s;
  let nlimbs = (len + base_digits - 1) / base_digits in
  let r = Array.make nlimbs 0 in
  let pos = ref len in
  for i = 0 to nlimbs - 1 do
    let start = max 0 (!pos - base_digits) in
    r.(i) <- int_of_string (String.sub s start (!pos - start));
    pos := start
  done;
  normalize r

