%{
Standardize monthly net ecosystem exchange (NEE) grids so model
outputs from different groups can be archived side by side.

@begin standardize_nee
@in NEE_data @desc monthly NEE grids, one file per model
@param scale_factor
@out NEE_std
%}

% @begin LoadData @in NEE_data @out nee_monthly
nee_monthly = read_nee_grids(NEE_data);
% @end LoadData

%{
@begin QualityControl
@in nee_monthly
@out nee_clean
%}

% @begin FilterOutliers @in nee_monthly @out nee_kept
nee_kept = nee_monthly;
nee_kept(abs(nee_kept) > 1.0e4) = NaN;
% @end FilterOutliers

% @begin GapFill @in nee_kept @out nee_clean
nee_clean = fill_gaps(nee_kept, 'method', 'linear');
% @end GapFill

% @end QualityControl

% @begin Standardize @in nee_clean @param scale_factor @out NEE_std
fprintf('%% @end inside a string must not close a block\n');
NEE_std = nee_clean .* scale_factor;
write_netcdf('NEE_std.nc', NEE_std);
% @end Standardize

% @end standardize_nee
